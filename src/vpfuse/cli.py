"""Command-line entry point.

Subcommands: `tokens` (budget table), `train` (one stage, checkpoint + loss
CSV + manifest), `eval` (report files), `route` (gates for an instruction),
`ablate` (strategy/subset/stacked tables).

Exit codes are a stable scripting contract: 0 success, 1 runtime failure
(a ``NonFiniteError`` or ``OSError``), 2 validation failure (any
``ValueError``: bad config, checkpoint or arguments, misaligned budgets).
Every run directory is created exclusively and contains a manifest from
which the run is reproducible: its ``command`` is the whole invocation and
its ``config`` what ran (for `ablate`, with the step and ``--n`` flags
applied to their config keys).  `train` creates its directory before
training, `eval` and `ablate` only once evaluation has finished, so a failed
eval or ablation leaves no directory.  The manifest's ``status`` reads
``running`` until every artifact is written; it is then rewritten with
``ok`` and the command's wall time, ``wall_s``.  A train run that failed
keeps ``running``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import platform
import shlex
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy

from . import __version__, tensor
from .ablations import ARMS, evaluate, gate_columns, run_arms, stage_recipe
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import Config, parse_config
from .model import FusionModel
from .projectors import compute_token_budget, validate_alignment
from .router import gate, scatter_gates
from .tasks import FAMILIES
from .tensor import NonFiniteError
from .training import STAGES, train

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _load_config(path: str | None) -> Config:
    text = Path(path).read_text(encoding="utf-8") if path else ""
    return parse_config(text)


def _positive_int(text: str) -> int:
    """argparse type for counts: anything but an integer >= 1 exits 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _seed_list(text: str) -> list[int]:
    """argparse type for ``--seeds``: a comma list of distinct integers >= 0,
    checked before any model is built.  An empty list is left to ``run_arms``."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = None
    if seeds is None or any(seed < 0 for seed in seeds):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of non-negative integer seeds, got {text!r}")
    _reject_repeats(seeds, "seed", text)
    return seeds


def _family_list(text: str) -> tuple[str, ...]:
    """argparse type for ``--families``: a comma list of distinct task
    families (all of them if it has no entries), checked before the
    checkpoint is read.  Empty entries are skipped, as ``--seeds`` skips them."""
    families = tuple(f.strip() for f in text.split(",") if f.strip()) or FAMILIES
    bad = [f for f in families if f not in FAMILIES]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown families {bad}")
    _reject_repeats(families, "family", text)
    return families


def _reject_repeats(items, what: str, text: str) -> None:
    # A repeated entry would be run twice and reported as two.
    if len(set(items)) < len(items):
        raise argparse.ArgumentTypeError(f"each {what} may be listed once, got {text!r}")


def _reject_taken_out(path: str) -> None:
    """Stop on an existing ``--out`` before the command's work starts."""
    if os.path.lexists(path):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)


@contextmanager
def _run_dir(args, cfg: Config, seed: int | list[int], end_step: int,
             artifacts: list[str]) -> Iterator[Path]:
    """Create the run directory ``args.out`` exclusively and write its
    manifest, ``status`` running; once the block has written every artifact,
    rewrite it with ``ok`` and ``wall_s``, the seconds since ``main`` parsed
    the arguments.  A block that raises leaves ``running``."""
    run_dir = Path(args.out)
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(exist_ok=False)  # collisions are an error by contract
    manifest = {
        "tool_version": __version__,
        "command": args.invocation,
        "seed": seed,
        "start_step": 0,
        "end_step": end_step,
        "artifacts": artifacts,
        "config": cfg.serialize(),
        "row_workers": tensor._WORKERS,
        "blas_threads": tensor._BLAS_THREADS,
        # pool and layer_norm reproduce numpy's summation order bit for bit:
        # pool sums bins of at most 8 cells in the sequence numpy's pairwise
        # sum takes below 8 terms, and wider bins with np.add.reduceat.
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }

    def write(**fields) -> None:
        manifest.update(fields)
        write_atomic(run_dir / "manifest.json",
                     json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    write(status="running")
    yield run_dir
    write(status="ok", wall_s=time.perf_counter() - args.started)


def _loss_csv(curve) -> str:
    lines = ["step,loss"]
    lines += [f"{step},{value:.17g}" for step, value in curve]
    return "\n".join(lines) + "\n"


def cmd_tokens(args) -> int:
    budgets = compute_token_budget(_load_config(args.config))
    mismatch = validate_alignment(budgets)
    width = max(len(b.label) for b in budgets)
    for b in budgets:
        print(f"{b.label.ljust(width)}  {str(b.count).rjust(6)}  {b.derivation}")
    print(f"verdict: {'OK' if mismatch is None else 'MISMATCH'}")
    if mismatch is not None:
        print(mismatch)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = cfg.replace(train__seed=args.seed)

    if args.init:
        model, ckpt_cfg, _ = load_checkpoint(args.init)
        if ckpt_cfg.serialize() != cfg.serialize():
            raise ValueError("--init checkpoint config does not match --config")
    else:
        model = FusionModel(cfg, cfg["train.seed"])
        if args.stage == "tune":
            print("note: tuning from random init (no --init pretrain checkpoint)",
                  file=sys.stderr)
    # Every check on the config runs before the run directory exists.
    batches, tc = stage_recipe(model, args.stage, args.steps)

    with _run_dir(args, cfg, tc.seed, tc.steps, ["model.octo", "loss.csv"]) as run_dir:
        result = train(model, batches, tc)
        save_checkpoint(model, run_dir / "model.octo", stage=args.stage)
        write_atomic(run_dir / "loss.csv", _loss_csv(result.loss_curve))
    print(f"{args.stage}: {tc.steps} steps, final loss {result.final_loss:.6f}")
    print(f"artifacts in {run_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, cfg, _ = load_checkpoint(args.ckpt)
    _reject_taken_out(args.out)
    families = args.families
    report = evaluate(model, families=families, n=args.n)

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
    with _run_dir(args, cfg, cfg["train.seed"], 0,
                  ["accuracy.csv", "gates.csv", "report.txt"]) as run_dir:
        write_atomic(run_dir / "accuracy.csv", report.accuracy_csv())
        write_atomic(run_dir / "gates.csv", report.gate_csv())
        write_atomic(run_dir / "report.txt", text)
    print(text, end="")
    return EXIT_OK


def cmd_route(args) -> int:
    model, cfg, _ = load_checkpoint(args.ckpt)
    try:
        ids = np.array([int(tok) for tok in args.instruction.split()], dtype=np.int64)
    except ValueError:
        raise ValueError(f"instruction must be whitespace-separated token ids, "
                         f"got {args.instruction!r}") from None
    if ids.size == 0:
        raise ValueError("empty instruction")
    instr = model.instruction_encoder.encode(ids[None, :])
    gates = gate(model.router.route(instr), model.active)
    gates = scatter_gates(gates.p.data, model.active, model.router.n_slots)
    print(" ".join(f"{col}={v:.6f}"
                   for col, v in zip(gate_columns(cfg), gates.p.data[0])))
    return EXIT_OK


def cmd_ablate(args) -> int:
    flags = {"train__pretrain_steps": args.pretrain_steps,
             "train__tune_steps": args.tune_steps, "eval__samples": args.n}
    cfg = _load_config(args.config).replace(**{k: v for k, v in flags.items() if v is not None})
    arms = ARMS[args.mode](cfg)
    _reject_taken_out(args.out)
    table = run_arms(args.mode, arms, args.seeds)

    with _run_dir(args, cfg, args.seeds, 0, ["ablation.csv", "ablation.txt"]) as run_dir:
        write_atomic(run_dir / "ablation.csv", table.to_csv())
        write_atomic(run_dir / "ablation.txt", table.to_text())
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
    p.add_argument("--stage", choices=STAGES, required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=_positive_int, help="override the configured step count")
    p.add_argument("--out", required=True, help="run directory (must not exist)")
    p.add_argument("--init", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the synthetic families")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--families", type=_family_list, default=FAMILIES,
                   help="comma list of distinct families (default: all)")
    p.add_argument("--n", type=_positive_int, help="samples per family")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("route", help="print gate weights for an instruction")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--instruction", required=True,
                   help="whitespace-separated token ids, e.g. '12 13 14 15'")
    p.set_defaults(fn=cmd_route)

    p = sub.add_parser("ablate", help="run an ablation table")
    p.add_argument("--config")
    p.add_argument("--mode", choices=tuple(ARMS), required=True)
    p.add_argument("--seeds", type=_seed_list, default="1,2",
                   help="comma list of distinct seeds")
    p.add_argument("--pretrain-steps", type=_positive_int, help="sets train.pretrain_steps")
    p.add_argument("--tune-steps", type=_positive_int, help="sets train.tune_steps")
    p.add_argument("--n", type=_positive_int, help="sets eval.samples, per family")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.invocation = shlex.join(argv)
    args.started = time.perf_counter()
    try:
        # Every op raises NonFiniteError on a NaN or Inf it produces, so
        # numpy's floating-point warnings would only repeat that on stderr.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
