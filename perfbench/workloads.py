"""The benchmark's workloads: set-up, repeated timed operations, output checks.

Workloads drive vpfuse only through its public entry points
(``tasks.batch_stream`` / ``eval_batches``, ``FusionModel.forward`` / ``loss``,
``Tape.backward``, ``Adam.step``, ``checkpoint.save_checkpoint`` /
``load_checkpoint`` and ``ablations.evaluate``), looked up through their
modules at call time so that a traced run can wrap them.

A workload is measured in repetitions ("reps") of a fixed amount of work on
one of several streams, each stream a (model initialisation, data) pair
derived from the seed.  A rep that repeats a stream must reproduce that
stream's first rep bitwise, which is the determinism check.  Stream 0 is the
same for every seed; the reported loss comes from its first rep, so the loss
is one deterministic number that any change in the arithmetic moves.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vpfuse import ablations, checkpoint, tasks
from vpfuse.config import Config
from vpfuse.model import FusionModel
from vpfuse.projectors import compute_token_budget
from vpfuse.tensor import Tape, cross_entropy
from vpfuse.training import Adam, freeze_mask_for, make_strategy

import speed
from tracer import NullTracer, Tracer, count_tape_records, instrument

EVAL_BATCH = 64  # ablations.evaluate's batch size
SIMPLEX_TOL = 1e-12
REFERENCE_SEED = 0  # stream 0's train.seed; other streams' seeds are >= 1


@dataclass
class Run:
    """Measurements and check outcomes of one timed loop.

    With ``collect_each_op`` (traced runs), the cycle collector runs after
    every operation and its count is reported as ``tensor.cyclic_garbage``;
    otherwise the program's automatic collector runs, as in ``vpfuse train``.
    """

    collect_each_op: bool = False
    op_ms: list[float] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    harness_s: float = 0.0
    reference_peak_mb: float = 0.0  # ru_maxrss after the first rep
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def harness(self):
        """Time the benchmark's own work in the loop (checks, digests, the
        reference kernel, per-operation collections), which throughput
        leaves out."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.harness_s += time.perf_counter() - t0

    def op(self, ms: float, samples: int, problems: list[str], tracer) -> None:
        """Record one timed operation, which fails if any of its checks did,
        then time the reference kernel to gauge the machine's speed."""
        self.attempted += 1
        self.samples += samples
        self.op_ms.append(ms)
        if problems:
            self.failed += 1
            self.errors.extend(problems[:3])
        self.collect(tracer)
        with self.harness():
            self.kernel_ms.append(speed.kernel_ms())

    def collect(self, tracer) -> None:
        """In traced runs, free the operation's garbage and count it.

        Tape entries and the tensors they produce refer to each other, so a
        train step leaves its graph behind as reference cycles that only the
        cycle collector frees.
        """
        if self.collect_each_op:
            with self.harness():
                tracer.add("gc.garbage", gc.collect())

    def crashed(self, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one run-level check as an attempted operation."""
        self.attempted += 1
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed {detail}".rstrip())


def gate_problems(gates) -> list[str]:
    """Every gate row must lie on the probability simplex."""
    if gates is None:
        return []
    p = gates.p.data
    if p.min() < 0.0 or np.abs(p.sum(axis=-1) - 1.0).max() > SIMPLEX_TOL * p.shape[-1]:
        return ["gate row off the simplex"]
    return []


def check_token_budget(run: Run, model: FusionModel, batch) -> None:
    """Each active projector emits exactly its closed-form token budget."""
    probe = Tracer()
    with instrument(probe):
        model.forward(batch)
    budgets = compute_token_budget(model.cfg)
    expected = sorted((budgets[i].kind, budgets[i].count) for i in model.active)
    run.check("token_budget", sorted(probe.token_counts) == expected,
              f"{sorted(probe.token_counts)} != {expected}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stream_configs(cfg: Config, seed: int, streams: int) -> list[Config]:
    """Independent (initialisation, data) streams: stream 0 is the reference
    stream, the same for every seed, and the others derive from the seed."""
    return [cfg.replace(train__seed=seed * streams + j if j else REFERENCE_SEED)
            for j in range(streams)]


def last_tenth_mean(losses: list[float]) -> float:
    """Mean of the last tenth of a loss curve (at least one step)."""
    return statistics.fmean(losses[-math.ceil(len(losses) / 10):])


def train_stage(model, cfg, stage, steps, tracer, run, losses, ref_losses) -> None:
    """One training stage, step for step as ``training.train`` runs it.

    With ``run`` set, each step is recorded as a timed operation that fails
    if its gates leave the simplex or its loss differs from ``ref_losses``.
    """
    seed = cfg["train.seed"]
    mask = freeze_mask_for(stage)
    opt = Adam(cfg["train.lr"], cfg["train.beta1"], cfg["train.beta2"])
    strategy = make_strategy(cfg["train.strategy"], seed, stage)
    params = model.named_parameters()
    for name, p in params.items():
        p.requires_grad = mask.trainable(name)
    stream = tasks.batch_stream(cfg, stage, seed)
    for _ in range(steps):
        t0 = time.perf_counter()
        with tracer.op("step"):
            batch = next(stream)
            model.zero_grad()
            with Tape() as tape:
                loss, _, gates = model.loss(batch, strategy)
                tape.backward(loss)
            value = loss.item()
            if not math.isfinite(value):
                raise ArithmeticError(f"non-finite loss in {stage}")
            opt.step(params, mask)
        ms = 1e3 * (time.perf_counter() - t0)
        if run is None:
            continue
        with run.harness():
            problems = gate_problems(gates)
            i = len(losses)
            if ref_losses is not None and ref_losses[i] != value:
                problems.append(f"loss at step {i} differs from the stream's first rep")
            losses.append(value)
        run.op(ms, batch.size, problems, tracer)


class TrainWorkload:
    """Fixed-length training from each stream's initial state, stage by stage.

    Rep ``i`` trains stream ``i % streams``.  Between stages the weights pass
    through a checkpoint save and load, as ``vpfuse train --init`` does, and
    each rep ends by saving a checkpoint, as ``vpfuse train`` does.  A rep
    that repeats a stream must reproduce its loss curve and checkpoint bytes.
    """

    warmup_steps = 2

    def __init__(self, cfg: Config, seed: int, stages, scratch: Path, streams: int):
        self.cfgs = stream_configs(cfg, seed, streams)
        self.min_reps = streams + 1
        self.stages = stages  # ((stage name, steps), ...)
        self.path = scratch / "model.octo"
        self.refs: dict[int, tuple[list[float], list[str]]] = {}

    def setup(self, tracer=NullTracer()) -> None:
        with tracer.op("setup"):
            self.models = [FusionModel(cfg, cfg["train.seed"]) for cfg in self.cfgs]
            self.inits = [{name: p.data.copy() for name, p in m.named_parameters().items()}
                          for m in self.models]
            # Warm up on the reference stream, so that set-up does the same
            # work whatever the seed (an image batch costs a tenth of a video one).
            train_stage(self.models[0], self.cfgs[0], self.stages[0][0],
                        self.warmup_steps, NullTracer(), None, [], None)

    def rep(self, index: int, run: Run, tracer=NullTracer()) -> None:
        j = index % len(self.cfgs)
        cfg, model = self.cfgs[j], self.models[j]
        for name, p in model.named_parameters().items():
            p.data = self.inits[j][name].copy()
        ref = self.refs.get(j)
        losses: list[float] = []
        digests: list[str] = []
        try:
            for i, (stage, steps) in enumerate(self.stages):
                if i:
                    with tracer.op("boundary"):
                        checkpoint.save_checkpoint(model, self.path, stage=self.stages[i - 1][0])
                        model, _, _ = checkpoint.load_checkpoint(self.path)
                    with run.harness():
                        digests.append(_digest(self.path))
                    run.collect(tracer)
                train_stage(model, cfg, stage, steps, tracer, run, losses,
                            ref[0] if ref else None)
            with tracer.op("boundary"):
                checkpoint.save_checkpoint(model, self.path, stage=self.stages[-1][0])
            with run.harness():
                digests.append(_digest(self.path))
        except Exception as exc:  # a failing rep is counted, and the run goes on
            run.crashed(exc)
            return
        if ref is None:
            self.refs[j] = (losses, digests)
            if j == 0:
                self.final_model = model
        else:
            with run.harness():
                run.check("checkpoint_bytes_repeat", digests == ref[1])

    def finish(self, run: Run) -> float:
        """Run-level checks; returns the mean training loss over the last
        tenth of the steps of the reference stream's first rep."""
        if 0 not in self.refs:
            run.check("completed_rep", False)
            return 0.0
        stream = tasks.batch_stream(self.cfgs[0], self.stages[-1][0], self.cfgs[0]["train.seed"])
        batch = next(b for b in stream if b.modality == "video")
        check_token_budget(run, self.final_model, batch)
        return last_tenth_mean(self.refs[0][0])


@contextlib.contextmanager
def batch_ops(model: FusionModel, batches: int, run: Run, tracer, seen: list):
    """Make each batch of an ``ablations.evaluate`` call one timed operation.

    An operation runs from the end of the previous batch's forward (or the
    block's start) to the end of its own, so it covers the batch's synthesis
    and its forward.  ``(batch, logits)`` of each forward go to ``seen``.
    The class's ``forward`` is looked up at call time, so a traced run still
    sees its span.
    """
    ops = contextlib.ExitStack()

    def start() -> float:
        ops.enter_context(tracer.op("step"))
        return time.perf_counter()

    t0 = start()

    def forward(batch, strategy=None):
        nonlocal t0
        logits, gates = type(model).forward(model, batch, strategy)
        ms = 1e3 * (time.perf_counter() - t0)
        ops.close()
        with run.harness():
            seen.append((batch, logits))
            problems = gate_problems(gates)
        run.op(ms, batch.size, problems, tracer)
        if len(seen) < batches:
            t0 = start()
        return logits, gates

    model.forward = forward
    try:
        yield
    finally:
        ops.close()
        del model.forward


class EvalWorkload:
    """Tape-free ``ablations.evaluate`` over each family's whole eval split,
    on fresh models loaded from checkpoints.  Rep ``i`` evaluates stream
    ``i % streams``; one operation synthesises and forwards one batch."""

    def __init__(self, cfg: Config, seed: int, scratch: Path, streams: int):
        self.cfgs = stream_configs(cfg, seed, streams)
        self.min_reps = streams + 1
        self.batches = math.ceil(cfg["eval.samples"] / EVAL_BATCH)
        self.path = scratch / "model.octo"
        self.reference: dict[tuple[int, str], tuple] = {}
        self.ce: list[tuple[float, int]] = []  # reference stream's (loss, size)
        self.tape_counts = Tracer()

    def setup(self, tracer=NullTracer()) -> None:
        with tracer.op("setup"):
            self.models = []
            for cfg in self.cfgs:
                checkpoint.save_checkpoint(FusionModel(cfg, cfg["train.seed"]), self.path)
                self.models.append(checkpoint.load_checkpoint(self.path)[0])
            ablations.evaluate(self.models[0], families=(tasks.FAMILIES[0],), n=EVAL_BATCH)

    def rep(self, index: int, run: Run, tracer=NullTracer()) -> None:
        j = index % len(self.cfgs)
        model = self.models[j]
        for family in tasks.FAMILIES:
            seen = []
            try:
                with (count_tape_records(self.tape_counts),
                      batch_ops(model, self.batches, run, tracer, seen)):
                    report = ablations.evaluate(model, families=(family,))
            except Exception as exc:  # a failing family is counted, and the run goes on
                run.crashed(exc)
                continue
            with run.harness():
                correct = sum(int((logits.data.argmax(axis=1) == batch.labels).sum())
                              for batch, logits in seen)
                total = sum(batch.size for batch, _ in seen)
                accuracy = report.accuracy[family]
                run.check("accuracy_matches_logits", correct / total == accuracy,
                          f"({family})")
                outcome = (accuracy, tuple(report.mean_gates[family]))
                first = self.reference.setdefault((j, family), outcome)
                if index >= len(self.cfgs):
                    run.check("eval_report_repeat", first == outcome, f"({family})")
                if index == 0:
                    self.ce += [(cross_entropy(logits, batch.labels).item(), batch.size)
                                for batch, logits in seen]

    def finish(self, run: Run) -> float:
        """Run-level checks; returns the reference stream's mean
        cross-entropy over the eval split of every family."""
        batch = next(tasks.eval_batches(self.cfgs[0], "motion", EVAL_BATCH))
        with count_tape_records(self.tape_counts):
            check_token_budget(run, self.models[0], batch)
        entries = sum(sum(c.values()) for c in self.tape_counts.counters.values())
        run.check("tape_free", entries == 0, f"({entries:.0f} tape entries)")
        if not self.ce:
            run.check("completed_rep", False)
            return 0.0
        return sum(ce * n for ce, n in self.ce) / sum(n for _, n in self.ce)


def make_workload(name: str, seed: int, scratch: Path, smoke: bool):
    """The named workload, at full size or at smoke-test size."""
    from vpfuse import default_config
    cfg = default_config()
    if name == "train-desk":
        # The default schedule's 1:2 pretrain:tune ratio, at a fixed step count.
        pretrain = 2 if smoke else 15
        return TrainWorkload(cfg, seed, (("pretrain", pretrain), ("tune", 2 * pretrain)),
                             scratch, 4)
    if name == "train-stacked-stc":
        return TrainWorkload(ablations.stacked_config(cfg, "stc"), seed,
                             (("tune", 3 if smoke else 30),), scratch, 4)
    if name == "eval-desk":
        return EvalWorkload(cfg, seed, scratch, 2 if smoke else 4)
    raise KeyError(name)
