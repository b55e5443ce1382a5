"""In-memory spans and counters for the benchmark's traced run.

``instrument`` swaps the public entry points of each vpfuse module for timing
wrappers while its block is open and restores the originals on exit, so the
program is measured from the outside and its source stays untouched.  A span
is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (None at top level) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import defaultdict

# Backward-rule names the per-op metrics report; both pooling ops share "pool".
BACKWARD_OPS = ("matmul", "conv3d", "layer_norm", "softmax", "gelu", "add", "pool")
LAYERS = ("tasks", "encoders", "projectors", "router", "model", "tensor",
          "training", "checkpoint")
_OP_ALIASES = {"pool_bins": "pool", "pool_grid": "pool"}
_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every hook is a no-op."""

    def op(self, kind):
        return _NULL

    def span(self, name):
        return _NULL

    def add(self, key, value=1.0):
        pass


class Tracer:
    """Spans plus per-operation counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_kinds: dict[int, str] = {}
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.token_counts: list[tuple[str, int]] = []
        self._open: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def op(self, kind: str):
        """One benchmark operation: a train step, an eval batch, a checkpoint
        hand-over ("boundary") or set-up work ("setup")."""
        self._op += 1
        self.op_kinds[self._op] = kind
        with self.span(f"bench.{kind}"):
            yield

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[self._op][key] += value


@contextlib.contextmanager
def _patched(patches):
    """Apply ``(owner, attr, replacement)`` triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def count_tape_records(tracer):
    """Count tape entries by op name (``tape.<op>`` counters) without timing
    backward rules; eval uses it to prove it stays tape-free."""
    from vpfuse.tensor import Tape
    record = Tape.record

    def counted(tape, name, inputs, output, rule):
        tracer.add("tape." + name)
        return record(tape, name, inputs, output, rule)

    return _patched([(Tape, "record", counted)])


def instrument(tracer: Tracer):
    """Wrap every layer's public entry points in spans for one block."""
    from vpfuse import (ablations, checkpoint, encoders, model, projectors,
                        tasks, tensor, training)

    def spanned(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def stream(fn):
        # Batch synthesis happens when the generator is advanced, so the span
        # sits around each ``next``, not around the generator's creation.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with tracer.span("tasks.synth"):
                    batch = next(it, None)
                if batch is None:
                    return
                tracer.add("tasks.samples", batch.size)
                yield batch
        return wrapper

    visual = encoders.VideoEncoder.encode

    @functools.wraps(visual)
    def visual_encode(self, frames, frame_indices):
        n = frames.shape[1]
        tracer.add(f"encoders.visual{n}_calls")
        with tracer.span(f"encoders.visual{n}"):
            return visual(self, frames, frame_indices)

    def projector(cls):
        call = cls.__call__
        name = f"projectors.{cls.kind}"

        @functools.wraps(call)
        def wrapper(self, *args):
            with tracer.span(name):
                out = call(self, *args)
            tracer.token_counts.append((cls.kind, out.count))
            return out
        return wrapper

    save = checkpoint.save_checkpoint

    @functools.wraps(save)
    def save_checkpoint(model_, path, *args, **kwargs):
        with tracer.span("checkpoint.save"):
            save(model_, path, *args, **kwargs)
        tracer.add("checkpoint.saves")
        tracer.add("checkpoint.bytes", os.path.getsize(path))

    record = tensor.Tape.record

    def timed_record(tape, name, inputs, output, rule):
        tracer.add("tape." + name)
        key = "backward." + _OP_ALIASES.get(name, name)

        def timed_rule(g):
            t0 = time.perf_counter()
            grads = rule(g)
            tracer.add(key, time.perf_counter() - t0)
            return grads
        return record(tape, name, inputs, output, timed_rule)

    classes = (projectors.ImageProjector, projectors.StcProjector,
               projectors.ComProjector)
    return _patched([
        (tasks, "batch_stream", stream(tasks.batch_stream)),
        (ablations, "eval_batches", stream(ablations.eval_batches)),
        (encoders.VideoEncoder, "encode", visual_encode),
        (encoders.InstructionEncoder, "encode",
         spanned("encoders.instruction", encoders.InstructionEncoder.encode)),
        *[(cls, "__call__", projector(cls)) for cls in classes],
        (model, "fuse_with_strategy",
         spanned("router.route_fuse", model.fuse_with_strategy)),
        (model.Decoder, "__call__", spanned("model.decoder", model.Decoder.__call__)),
        (model.FusionModel, "forward",
         spanned("model.forward", model.FusionModel.forward)),
        (tensor.Tape, "backward", spanned("tensor.backward", tensor.Tape.backward)),
        (tensor.Tape, "record", timed_record),
        (training.Adam, "step", spanned("training.adam", training.Adam.step)),
        (checkpoint, "save_checkpoint", save_checkpoint),
        (checkpoint, "load_checkpoint",
         spanned("checkpoint.load", checkpoint.load_checkpoint)),
    ])


def summarize(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the self-time share of each layer.

    A ``*_ms`` metric is the median, over the operations in which that layer
    ran, of its time in the operation; ``checkpoint.*`` are per call.
    ``*_calls`` and ``tasks.samples`` are means per step.
    ``tensor.tape_entries*`` and ``tensor.cyclic_garbage`` (objects the cycle
    collector frees after a step) are exact per-step counts, the lower
    median.  ``<layer>.self_ms`` is the layer's self time per step.  Set-up
    operations are left out, except from ``checkpoint.*``, because eval loads
    its checkpoints during set-up.
    """
    spans = tracer.spans
    kinds = tracer.op_kinds
    steps = [op for op, kind in kinds.items() if kind == "step"]
    n_steps = max(1, len(steps))
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start

    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    self_s: dict[str, float] = defaultdict(float)
    total = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        kind = kinds.get(op, "setup")
        if kind == "setup" and not name.startswith("checkpoint."):
            continue
        per_op[op][name] += end - start
        if name == "model.forward":
            per_op[op]["model.forward_self"] += end - start - child[i]
        if kind == "setup":
            continue
        self_s[name.split(".")[0]] += end - start - child[i]
        if parent is None:
            total += end - start

    def median_ms(name):
        vals = [times[name] for times in per_op.values() if name in times]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def median_call_ms(name):
        vals = [end - start for n, start, end, _, _ in spans if n == name]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def counter_median_ms(key, ops):
        vals = [tracer.counters[op].get(key, 0.0) for op in ops]
        return 1e3 * statistics.median(vals) if vals else 0.0

    def per_step(key):
        return sum(tracer.counters[op].get(key, 0.0) for op in steps) / n_steps

    backward_ops = [op for op in steps if "tensor.backward" in per_op[op]]
    tape_ops = {}
    for op in steps:
        counts = tracer.counters[op]
        tape_ops[op] = {_OP_ALIASES.get(k[5:], k[5:]): v
                        for k, v in counts.items() if k.startswith("tape.")}

    metrics = {
        "tasks.synth_ms": median_ms("tasks.synth"),
        "tasks.samples": per_step("tasks.samples"),
        "encoders.visual8_ms": median_ms("encoders.visual8"),
        "encoders.visual32_ms": median_ms("encoders.visual32"),
        "encoders.visual32_calls": per_step("encoders.visual32_calls"),
        "encoders.instruction_ms": median_ms("encoders.instruction"),
        "projectors.image_ms": median_ms("projectors.image"),
        "projectors.stc_ms": median_ms("projectors.stc"),
        "projectors.com_ms": median_ms("projectors.com"),
        "router.route_fuse_ms": median_ms("router.route_fuse"),
        "model.decoder_ms": median_ms("model.decoder"),
        "model.forward_ms": median_ms("model.forward"),
        "model.forward_self_ms": median_ms("model.forward_self"),
        "tensor.backward_ms": median_ms("tensor.backward"),
    }
    for name in BACKWARD_OPS:
        metrics[f"tensor.backward.{name}_ms"] = counter_median_ms(
            f"backward.{name}", backward_ops)
    metrics["tensor.tape_entries"] = float(statistics.median_low(
        [sum(c.values()) for c in tape_ops.values()] or [0]))
    for name in BACKWARD_OPS:
        metrics[f"tensor.tape_entries.{name}"] = float(statistics.median_low(
            [c.get(name, 0) for c in tape_ops.values()] or [0]))
    metrics["tensor.cyclic_garbage"] = float(statistics.median_low(
        [tracer.counters[op].get("gc.garbage", 0) for op in steps] or [0]))
    metrics["training.adam_ms"] = median_ms("training.adam")
    metrics["checkpoint.save_ms"] = median_call_ms("checkpoint.save")
    metrics["checkpoint.load_ms"] = median_call_ms("checkpoint.load")
    saves = sum(c.get("checkpoint.saves", 0) for c in tracer.counters.values())
    saved = sum(c.get("checkpoint.bytes", 0) for c in tracer.counters.values())
    metrics["checkpoint.bytes"] = saved / saves if saves else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = 1e3 * self_s.get(layer, 0.0) / n_steps
    shares = {layer: self_s[layer] / total for layer in sorted(self_s)} if total else {}
    return metrics, shares
