"""Dense float64 tensors with reverse-mode automatic differentiation.

Arrays are numpy float64 throughout; the tape and backward rules are
implemented here.  Design points that the rest of the project relies on:

- Ops record onto the thread's open ``Tape`` whenever any input requires
  grad.  At most one tape is open per thread: entering a second raises
  ``RuntimeError`` and leaves the first recording.  With no open tape,
  forward math runs tape-free, which is how inference/eval avoids autograd
  overhead.
- The tape owns the graph: its entries hold each op's inputs, output and
  backward rule.  A recorded tensor points back at its tape only through a
  weak reference, so the graph has no reference cycles and is freed by
  reference counting as soon as the caller drops the tape and the tensors
  it produced.  ``Tape.backward`` takes a loss recorded on that tape and
  raises ``TensorError`` for any other (detached) tensor.
- ``Tape.backward`` accumulates additively into ``.grad``; calling it twice
  without resetting doubles gradients.  Resetting is explicit: the caller
  sets ``.grad`` to None.
- Every op validates that its output is finite and raises ``NonFiniteError``
  immediately otherwise, naming the op.  The ops split into row chunks
  (below) check each chunk's rows inside the chunk, in parallel and while
  they are still in cache, and tell ``_emit`` (through ``_output``) not to
  check again; ``_emit`` checks every other op's output.
- Only ``add`` and ``mul`` broadcast their operands (numpy-style);
  ``broadcast_to`` broadcasts explicitly.  Every other op takes the one
  layout the model passes it: ``attention`` a q, k and v with equal leading
  axes, ``layer_norm`` a gamma and beta of shape (D,), ``linear`` a bias of
  the weight's width, ``softmax`` the last axis.  Any other layout raises
  ``TensorError``.
- The fused ops ``linear`` (bias and optional GELU folded in) and
  ``attention`` each record one tape entry in place of a chain of composed
  ops.  They repeat the composed ops' arithmetic in the same order, so
  outputs and gradients are bitwise equal to the composed graph.  They check
  finiteness of their output, and ``attention`` also of its scaled scores
  (where the composed matrix product would have raised), before the softmax
  can turn a ``-inf`` score into a silent 0.
- The forward arithmetic of ``linear``, ``attention``, ``conv3d``, ``pool``,
  ``add`` and tape-free ``rowwise`` is split into row chunks of the leading
  (batch) axis that run on the machine's cores; the numpy kernels release
  the GIL.  Chunk boundaries depend only on the op's shape (at most four
  chunks, each with enough work to pay for a hand-off), never on the worker
  count or on timing, and every chunk repeats the unsplit arithmetic on its
  own rows, so results are bitwise equal to one thread on any core count.
  An op called inside a chunk runs all of its own chunks on that thread, as
  the cores are busy with the outer call's chunks.
  The hand-off is a job on a queue that daemon workers serve, costing a few
  microseconds: the calling thread runs chunk 0 and then claims chunks in
  turn with the workers, so it waits only for chunks a worker has started.
  Chunks run in the caller's ``contextvars`` context (``np.errstate``
  applies to them), and a chunk's exception is re-raised in the caller.  A
  finished job holds no arrays, and a forked child starts workers of its
  own.  The tape and ``_emit`` stay on the calling thread.
- ``pool`` and ``layer_norm`` reproduce numpy's own summation order, so they
  are bitwise equal to ``np.add.reduceat`` and to ``np.mean``/``np.var``
  (checked on numpy 2.4.6).  ``pool`` adds each bin's first cell to numpy's
  ``pairwise_sum`` of its other cells with slice views; ``layer_norm``
  takes ``np.var``'s steps but computes ``x - mean`` once.
- Two backward rules split the same way.  ``attention`` computes its three
  gradients per batch row, each row's from that row alone (a query shared
  by several frames is broadcast first, so ``broadcast_to``'s rule sums its
  gradient over them).  ``conv3d`` splits its kernel gradient over kernel
  taps, each tap's gradient being one GEMM of its own; its input gradient
  adds the taps up in order on the calling thread.  The other rules run on
  the calling thread: a weight gradient sums over the rows a split would
  separate, and the row-local gradients of ``linear`` and ``layer_norm``
  took as long split in two as whole.
- ``rowwise`` runs a row-local composite of these ops (a transformer block,
  ``layers.TransformerBlock``): the composed ops while a tape is open, else
  the same ops on each row chunk in turn, so only the output is full-size.
  Outputs, gradients and the op named by ``NonFiniteError`` are the
  composed ops' either way.
- All parallelism comes from those row chunks.  At import, numpy's vendored
  OpenBLAS is set to one thread: its threaded GEMM splits the summed axis
  by thread count, which changes the last bits of weight gradients.  So
  results do not depend on ``OPENBLAS_NUM_THREADS`` or on the core count.
  ``_BLAS_THREADS`` is 1, or ``None`` on a numpy build without that library.
- GELU's standard normal CDF is scipy's ``ndtr`` ufunc, which ``_load_ndtr``
  loads from its extension module ``scipy/special/_special_ufuncs`` alone.
  ``from scipy.special import ndtr`` would import the whole package, whose
  array-API layer pulls in ``numpy.f2py``, ``numpy.testing`` and more: about
  0.3 s and 20 MiB of every process's start-up.  It is the same ufunc object
  as ``scipy.special.ndtr`` in either import order, so results are unchanged;
  where that private module is missing or has no ``ndtr``, the package
  import is the fallback.
"""

from __future__ import annotations

import contextvars
import ctypes
import importlib.machinery
import importlib.util
import itertools
import math
import os
import queue
import sys
import threading
import weakref
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np


def _load_ndtr() -> np.ufunc:
    """scipy's ``ndtr`` ufunc without the ``scipy.special`` package import."""
    name = "scipy.special._special_ufuncs"
    spec = importlib.util.find_spec("scipy")  # imports nothing
    roots = spec.submodule_search_locations if spec else ()
    paths = [Path(root, "special", "_special_ufuncs" + suffix)
             for root in roots for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is not None:
        module = sys.modules.get(name)
        if module is None:
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            # The load registers the module.  Unregistered again, it is
            # imported by a later ``import scipy.special`` as usual, with the
            # same ufunc objects, and bound as that package's attribute.
            sys.modules.pop(name, None)
        if hasattr(module, "ndtr"):
            return module.ndtr
    # The module is private: an older scipy keeps ``ndtr`` elsewhere.
    from scipy.special import ndtr
    return ndtr


ndtr = _load_ndtr()  # standard normal CDF, vectorized

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TensorError(ValueError):
    """Invalid shape, axis, or argument for a tensor op."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf; raised at the op that created it."""


def _check_finite(data: np.ndarray, op: str) -> None:
    # Fast path: a plain sum is NaN/Inf iff the array contains a non-finite
    # value (desk-scale magnitudes cannot overflow a float64 sum).  The full
    # scan only runs to rule out a false alarm before raising.
    s = float(np.sum(data))
    if not math.isfinite(s):
        if not np.isfinite(data).all():
            raise NonFiniteError(f"op '{op}' produced non-finite values")


class Tensor:
    """A dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_op_index",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[weakref.ref] = None  # weak ref to the recording tape
        self._op_index: Optional[int] = None

    # -- introspection -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

class _TapeEntry:
    __slots__ = ("name", "inputs", "output", "rule")

    def __init__(self, name, inputs, output, rule):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule


# .tape: the tape open on this thread, if any; .in_chunk: whether the thread
# is running a chunk of a split op (see ``_over_rows``).
_local = threading.local()


def active_tape() -> Optional["Tape"]:
    return getattr(_local, "tape", None)


class Tape:
    """Ordered record of ops; inputs of every entry precede it.

    Confined to the thread that opened it, and at most one is open per
    thread.  ``backward`` replays entries in reverse, firing each backward
    rule at most once per call.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self._ref = weakref.ref(self)  # the back-pointer every output gets

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a tape is already open on this thread")
        _local.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _local.tape = None
        return False

    def record(self, name, inputs, output, rule) -> None:
        output._tape = self._ref
        output._op_index = len(self.entries)
        self.entries.append(_TapeEntry(name, inputs, output, rule))

    def backward(self, loss: Tensor) -> None:
        """Walk the tape in reverse from the loss.

        Gradients of intermediate (tape-produced) tensors propagate through
        local buffers that are freed as the walk passes them; leaf tensors --
        graph inputs such as parameters -- accumulate additively into
        ``.grad``, so a second backward call doubles them.
        """
        if loss.data.size != 1 or loss.data.shape != ():
            raise TensorError(f"backward needs a scalar loss, got shape {loss.shape}")
        ref = self._ref
        if loss._tape is not ref or loss._op_index is None:
            raise TensorError("loss is not recorded on this tape (detached tensor)")
        local: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
        for entry in reversed(self.entries[: loss._op_index + 1]):
            g_out = local.pop(entry.output, None)
            if g_out is None:
                continue
            grads = entry.rule(g_out)
            for inp, g in zip(entry.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                if inp._tape is ref:
                    acc = local.get(inp)
                    local[inp] = g if acc is None else acc + g
                else:
                    inp.grad = g.copy() if inp.grad is None else inp.grad + g


def _emit(name: str, inputs: Sequence[Tensor], data: np.ndarray,
          rule: Callable[[np.ndarray], tuple]) -> Tensor:
    _check_finite(data, name)
    return _output(name, inputs, data, rule)


def _output(name: str, inputs: Sequence[Tensor], data: np.ndarray,
            rule: Optional[Callable[[np.ndarray], tuple]]) -> Tensor:
    """``_emit`` for an op whose row chunks have checked ``data`` already."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(i.requires_grad for i in inputs)
    out.grad = None
    out._tape = None
    out._op_index = None
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(name, tuple(inputs), out, rule)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# row chunks across cores
# ---------------------------------------------------------------------------

# Threads that run a split op's chunks, the caller included.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_MAX_CHUNKS = 4
_MIN_CHUNK_WORK = 1 << 15  # elements per chunk, enough to pay for a hand-off


def _pin_blas() -> Optional[int]:
    """Set numpy's vendored OpenBLAS to one thread; its thread count after."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("libscipy_openblas64_*.so")):
        blas = ctypes.CDLL(str(lib))
        blas.scipy_openblas_set_num_threads64_(1)
        return blas.scipy_openblas_get_num_threads64_()
    return None


_BLAS_THREADS = _pin_blas()


def _row_chunks(rows: int, row_work: int) -> list[slice]:
    """Near-equal slices of ``rows``: at most ``_MAX_CHUNKS``, each with at
    least ``_MIN_CHUNK_WORK`` elements; a function of the shape alone."""
    if row_work <= 0:
        return [slice(None)]
    min_rows = -(-_MIN_CHUNK_WORK // row_work)
    n = min(_MAX_CHUNKS, rows // min_rows)
    if n <= 1:
        return [slice(None)]
    return [slice(rows * i // n, rows * (i + 1) // n) for i in range(n)]


class _Job:
    """The chunks of one ``_over_rows`` call, claimed in order by the caller
    and by the workers it was posted to.

    ``claim`` hands out chunk indices from 1, as chunk 0 is the caller's;
    ``finish`` counts finished chunks, and whichever thread finishes the last
    releases ``done``.  ``next`` on an ``itertools.count`` is atomic under
    the GIL, so neither counter needs a lock.
    """

    __slots__ = ("fill", "chunks", "context", "claim", "finish", "done", "error")

    def __init__(self, fill: Callable[[slice], None], chunks: list[slice]):
        self.fill = fill
        self.chunks = chunks
        self.context = contextvars.copy_context()
        self.claim = itertools.count(1)
        self.finish = itertools.count(1)
        self.done = threading.Lock()
        self.done.acquire()
        self.error: Optional[BaseException] = None

    def run(self, i: int) -> None:
        """Run chunk ``i``, then each chunk this thread claims, until none is
        left.  Once a chunk has failed, the chunks after it only count."""
        fill, chunks = self.fill, self.chunks
        _local.in_chunk = True
        try:
            while i < len(chunks):
                if self.error is None:
                    try:
                        fill(chunks[i])
                    except BaseException as exc:  # re-raised on the calling thread
                        if self.error is None:
                            self.error = exc
                if next(self.finish) == len(chunks):
                    self.done.release()
                i = next(self.claim)
        finally:
            _local.in_chunk = False


def _serve(jobs: queue.SimpleQueue) -> None:
    """A worker: claim chunks of each job taken from ``jobs``."""
    while True:
        job = jobs.get()
        i = next(job.claim)
        if i < len(job.chunks):
            # Chunk i is unfinished, so the caller has not cleared the job yet.
            job.context.copy().run(job.run, i)
        del job  # keep nothing of this job while waiting for the next


class _Crew:
    """Daemon worker threads serving one job queue, started as calls need them."""

    def __init__(self):
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()
        self.size = 0
        self.lock = threading.Lock()

    def post(self, job: _Job, helpers: int) -> None:
        """Queue ``job`` once per helper, first starting any missing workers."""
        if self.size < helpers:
            with self.lock:
                for _ in range(self.size, helpers):
                    threading.Thread(target=_serve, args=(self.jobs,), daemon=True,
                                     name=f"vpfuse-rows-{self.size}").start()
                    self.size += 1
        for _ in range(helpers):
            self.jobs.put(job)


_crew = _Crew()


def _fresh_crew() -> None:
    # A forked child has none of the parent's threads: give it an empty
    # queue, whose workers start on its first split op.
    global _crew
    _crew = _Crew()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_crew)


def _over_rows(fill: Callable[[slice], None], rows: int, row_work: int) -> None:
    """Call ``fill(rows_slice)`` on every chunk of the leading axis (see
    ``_row_chunks``).

    ``fill`` writes its rows of preallocated outputs and touches nothing
    shared.  The caller runs chunk 0 and claims later chunks in turn with the
    workers, so it waits only for chunks a worker has started.  The first
    exception a chunk raises is re-raised here once every chunk is done.
    Called inside another call's chunk, it runs every chunk on this thread.
    """
    chunks = _row_chunks(rows, row_work)
    helpers = min(_WORKERS, len(chunks)) - 1
    if helpers <= 0 or getattr(_local, "in_chunk", False):
        for sl in chunks:
            fill(sl)
        return
    job = _Job(fill, chunks)
    _crew.post(job, helpers)
    job.run(0)
    job.done.acquire()
    # Copies of the job may still wait in the queue: they must pin no arrays.
    job.fill = job.context = None
    if job.error is not None:
        try:
            raise job.error
        finally:
            job.error = None  # else the error's traceback would lead back to it


def _rows(a: np.ndarray, ndim: int, sl: slice) -> np.ndarray:
    """Rows ``sl`` of an operand broadcast against a rank-``ndim`` output."""
    return a[sl] if a.ndim == ndim > 0 and a.shape[0] != 1 else a


def rowwise(f: Callable[[Tensor], Tensor], x: Tensor, row_work: int) -> Tensor:
    """``f(x)`` for an ``f`` that is row-local and shape-preserving on the
    leading axis of ``x``.

    While a tape is open, this is ``f(x)``, and the tape holds the entries of
    ``f``'s ops.  Otherwise ``f`` runs on each ``_row_chunks`` chunk of ``x``
    (``row_work`` elements a row), so only the output is full-size; it is
    ``f(x)``'s bit for bit.
    """
    if active_tape() is not None:
        return f(x)
    out = np.empty(x.shape)

    def fill(sl):
        out[sl] = f(Tensor(x.data[sl])).data

    _over_rows(fill, x.shape[0], row_work)
    # No tape is open, so no rule is ever called.
    return _output("rowwise", (x,), out, None)


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor, *more: Tensor) -> Tensor:
    """``a + b + ...`` summed left to right into one buffer, as one tape entry.

    Each term's gradient is the output gradient summed down to its shape.
    When ``a + b`` already has the output's shape, that is bitwise equal to
    chained two-operand adds, forward and backward.
    """
    terms = (a, b) + more
    data = np.empty(np.broadcast_shapes(*(t.shape for t in terms)))

    def fill(sl):
        ds = data[sl] if data.ndim else data
        first, second, *rest = (_rows(t.data, ds.ndim, sl) for t in terms)
        np.add(first, second, out=ds)
        for t in rest:
            ds += t
        _check_finite(ds, "add")

    _over_rows(fill, data.shape[0] if data.ndim else 1, math.prod(data.shape[1:]))
    return _output("add", terms, data,
                   lambda g: tuple(_unbroadcast(g, t.shape) if t.requires_grad else None
                                   for t in terms))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _emit("mul", (a, b), data,
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def linear(x: Tensor, w: Tensor, b: Tensor, act: Optional[str] = None) -> Tensor:
    """``x @ w + b``, optionally followed by GELU, as one tape entry.

    Bitwise equal to ``add(matmul(x, w), b)`` (and ``gelu`` of it): the
    forward and backward repeat the composed ops' arithmetic in order.
    """
    if act not in (None, "gelu"):
        raise TensorError(f"unknown linear activation {act!r}")
    if x.ndim < 2 or w.ndim != 2 or b.shape != w.shape[1:]:
        raise TensorError(f"linear needs rank >= 2 input, a 2-D weight and a bias "
                          f"of its width, got {x.shape}, {w.shape} and {b.shape}")
    z = np.empty(x.shape[:-1] + w.shape[1:])
    cdf = np.empty(z.shape) if act == "gelu" else None
    data = np.empty(z.shape) if act == "gelu" else z

    def fill(sl):
        zs = z[sl]
        np.matmul(x.data[sl], w.data, out=zs)
        zs += b.data
        if cdf is not None:
            ndtr(zs, out=cdf[sl])
            np.multiply(zs, cdf[sl], out=data[sl])
        _check_finite(data[sl], "linear")

    # A 2-D x is a single GEMM; its rows stay whole, because a GEMM's bits
    # may depend on its row count.  Batched x is one GEMM per leading index.
    _over_rows(fill, z.shape[0], math.prod(z.shape[1:]) if x.ndim > 2 else 0)

    def rule(g):
        dz = g
        if cdf is not None:
            # d/dz [z * Phi(z)] = Phi(z) + z * phi(z); the pdf is only paid
            # for here, so tape-free eval never computes it.
            dz = np.multiply(z, -0.5)
            dz *= z
            np.exp(dz, out=dz)
            dz *= _INV_SQRT_2PI
            dz *= z
            dz += cdf
            dz *= g
        gx = dz @ np.swapaxes(w.data, -1, -2) if x.requires_grad else None
        # One weight-gradient block per leading index, then their sum.
        gw = (_unbroadcast(np.swapaxes(x.data, -1, -2) @ dz, w.shape)
              if w.requires_grad else None)
        gb = _unbroadcast(dz, b.shape) if b.requires_grad else None
        return gx, gw, gb

    return _output("linear", (x, w, b), data, rule)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """``softmax(scale * q @ kᵀ) @ v`` over the last axis, as one tape entry.

    ``q``, ``k`` and ``v`` share their leading axes (a query shared by every
    frame is broadcast first), and ``k`` may be ``v``.  The probabilities are
    computed in place and saved for backward.  Bitwise equal to the composed
    ``matmul``/``transpose``/``mul``/``softmax``/``matmul`` graph.
    """
    if min(q.ndim, k.ndim, v.ndim) < 2 or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise TensorError(f"attention needs rank >= 2 operands with equal leading "
                          f"axes, got {q.shape}, {k.shape} and {v.shape}")
    scale = float(scale)
    kt = np.swapaxes(k.data, -1, -2)
    p = np.empty(q.shape[:-1] + k.shape[-2:-1])
    data = np.empty(q.shape[:-1] + v.shape[-1:])
    row_work = math.prod(p.shape[1:]) if p.ndim > 2 else 0  # 2-D: one chunk

    def fill(sl):
        ps, outs = p[sl], data[sl]
        np.matmul(q.data[sl], kt[sl], out=ps)
        ps *= scale
        # exp would map a -inf score to a silent 0, so check before the softmax.
        _check_finite(ps, "attention")
        ps -= ps.max(axis=-1, keepdims=True)
        np.exp(ps, out=ps)
        ps /= ps.sum(axis=-1, keepdims=True)
        np.matmul(ps, v.data[sl], out=outs)
        _check_finite(outs, "attention")

    _over_rows(fill, p.shape[0], row_work)

    def rule(g):
        gv = np.empty(v.shape) if v.requires_grad else None
        ds = np.empty(p.shape) if q.requires_grad or k.requires_grad else None
        gq = np.empty(q.shape) if q.requires_grad else None
        gk = (np.empty(k.shape[:-2] + (k.shape[-1], k.shape[-2])) if k.requires_grad
              else None)
        vt = np.swapaxes(v.data, -1, -2)

        def fill(sl):
            ps = p[sl]
            if gv is not None:
                np.matmul(np.swapaxes(ps, -1, -2), g[sl], out=gv[sl])
            if ds is None:
                return
            dss = ds[sl]
            np.matmul(g[sl], vt[sl], out=dss)
            dss -= (dss * ps).sum(axis=-1, keepdims=True)
            dss *= ps
            dss *= scale
            if gq is not None:
                np.matmul(dss, k.data[sl], out=gq[sl])
            if gk is not None:
                np.matmul(np.swapaxes(q.data[sl], -1, -2), dss, out=gk[sl])

        _over_rows(fill, g.shape[0], row_work)
        # gk stays a transposed view of its (..., D, Nk) buffer: a contiguous
        # copy would change the summation order of gradients downstream.
        return gq, None if gk is None else np.swapaxes(gk, -1, -2), gv

    return _output("attention", (q, k, v), data, rule)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _emit("reshape", (a,), data, lambda g: (g.reshape(a.shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", tensors, data, rule)


def slice_axis(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    data = a.data[idx]

    def rule(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _emit("slice", (a,), data, rule)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = np.broadcast_to(a.data, shape).copy()
    return _emit("broadcast", (a,), data, lambda g: (_unbroadcast(g, a.shape),))


def tmean(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    data = a.data.mean(axis=axis)

    def rule(g):
        return (np.broadcast_to(np.expand_dims(g, axis) / n, a.shape).copy(),)

    return _emit("mean", (a,), data, rule)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF."""
    phi_cdf = ndtr(a.data)
    data = a.data * phi_cdf

    def rule(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (phi_cdf + a.data * pdf),)

    return _emit("gelu", (a,), data, rule)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        return (data * (g - dot),)

    return _emit("softmax", (a,), data, rule)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis of ``x``, then scale by ``gamma`` and shift by
    ``beta``, both of shape (D,)."""
    if not gamma.shape == beta.shape == x.shape[-1:]:
        raise TensorError(f"layer_norm needs gamma and beta of shape (D,) for x of "
                          f"shape (..., D), got {gamma.shape}, {beta.shape} and {x.shape}")
    # np.mean and np.var's own steps, with x - mu computed once: var is
    # sum(d * d) / n, and d is then scaled in place into xhat.
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x.data, mu)
    data = np.multiply(xhat, xhat)
    var = data.sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    inv = np.divide(1.0, np.sqrt(var + 1e-5))
    xhat *= inv
    np.multiply(xhat, gamma.data, out=data)
    data += beta.data

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if gamma.requires_grad else None
        dbeta = g.sum(axis=lead) if beta.requires_grad else None
        if not x.requires_grad:
            return None, dgamma, dbeta
        # dx = inv * (dxhat - m1 - xhat * m2), row by row
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = dxhat - m1
        dx -= np.multiply(xhat, m2, out=dxhat)
        dx *= inv
        return dx, dgamma, dbeta

    return _emit("layer_norm", (x, gamma, beta), data, rule)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true classes of (B, C)
    logits; ``labels`` is a length-B sequence."""
    if logits.ndim != 2:
        raise TensorError(f"cross_entropy expects (B, C) logits, got {logits.shape}")
    z = logits.data
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise TensorError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    ncls = z.shape[1]
    if np.any(labels < 0) or np.any(labels >= ncls):
        raise TensorError(f"label out of range for {ncls} classes")

    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    picked = z[np.arange(len(labels)), labels]
    data = np.asarray((lse - picked).mean())

    def rule(g):
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(len(labels)), labels] -= 1.0
        return (p * (float(g) / len(labels)),)

    return _emit("cross_entropy", (logits,), data, rule)


def embedding(table: Tensor, ids: np.ndarray, axis: int = 0) -> Tensor:
    """Entries ``ids`` of ``table`` along ``axis`` (``np.take``): token rows
    of an embedding table, or frames of a clip's features.

    The gradient adds each entry's gradient into its slot with ``np.add.at``,
    repeats in the order of the flattened ``ids``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.shape[axis]):
        raise TensorError(f"index out of range for {table.shape[axis]} entries "
                          f"along axis {axis}")
    data = np.take(table.data, ids, axis=axis)

    def rule(g):
        dt = np.zeros(table.shape, dtype=np.float64)
        # ids's axes of g to the front, flattened, against table's axis there
        g = np.moveaxis(g, tuple(range(axis, axis + ids.ndim)), tuple(range(ids.ndim)))
        np.add.at(np.moveaxis(dt, axis, 0), ids.reshape(-1),
                  g.reshape((-1,) + g.shape[ids.ndim:]))
        return (dt,)

    return _emit("embedding", (table,), data, rule)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def conv3d_out_dims(dims, k: int, stride, pad) -> tuple[int, ...]:
    """Output (T, H, W) of ``conv3d`` over input ``dims``: floor((d + 2p - k)
    / s) + 1 per axis, each at least 1 since k <= d + 2p is required."""
    if any(s < 1 for s in stride):
        raise TensorError(f"stride components must be >= 1, got {stride}")
    if any(p < 0 for p in pad):
        raise TensorError(f"padding must be non-negative, got {pad}")
    for d, p in zip(dims, pad):
        if k > d + 2 * p:
            raise TensorError(f"kernel {k} exceeds padded extent {d + 2 * p}")
    return tuple((d + 2 * p - k) // s + 1 for d, s, p in zip(dims, stride, pad))


def _tap_ranges(d_in: int, d_out: int, k: int, stride: int,
                pad: int) -> list[Optional[tuple[slice, slice]]]:
    """Per kernel offset along one axis: the (output, input) slices where
    that tap reads the unpadded input, or None if it reads only padding.

    Output position ``o`` reads input ``o * stride + offset - pad``; the
    valid outputs are those that land in ``[0, d_in)``.
    """
    ranges = []
    for offset in range(k):
        lo = max(0, -((offset - pad) // stride))  # ceil((pad - offset) / stride)
        hi = min(d_out - 1, (d_in - 1 + pad - offset) // stride)
        if lo > hi:
            ranges.append(None)
            continue
        first = lo * stride + offset - pad
        ranges.append((slice(lo, hi + 1),
                       slice(first, first + (hi - lo) * stride + 1, stride)))
    return ranges


def conv3d(x: Tensor, kernel: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """3D convolution over (T, H, W) with zero padding.

    Input is (B, T, H, W, Cin); kernel is (k, k, k, Cin, Cout).  Output dims
    follow floor((d + 2p - k)/s) + 1.
    """
    if x.ndim != 5:
        raise TensorError(f"conv3d input must be (B, T, H, W, Cin), got {x.shape}")
    if kernel.ndim != 5 or not (kernel.shape[0] == kernel.shape[1] == kernel.shape[2]):
        raise TensorError(f"conv3d kernel must be (k,k,k,Cin,Cout), got {kernel.shape}")
    k = kernel.shape[0]
    cin, cout = kernel.shape[3], kernel.shape[4]
    if x.shape[-1] != cin:
        raise TensorError(f"input channels {x.shape[-1]} != kernel Cin {cin}")
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    dims_in = x.shape[1:4]
    dims_out = conv3d_out_dims(dims_in, k, stride, padding)

    # Only taps whose window overlaps the unpadded input contribute; each
    # reads the valid input range and writes the output range it reaches.
    ranges = [_tap_ranges(d, o, k, s, p)
              for d, o, s, p in zip(dims_in, dims_out, stride, padding)]
    all_rows = slice(None)
    taps = [((dt, dh, dw), (all_rows, rt[0], rh[0], rw[0]),
             (all_rows, rt[1], rh[1], rw[1]))
            for dt, rt in enumerate(ranges[0]) if rt is not None
            for dh, rh in enumerate(ranges[1]) if rh is not None
            for dw, rw in enumerate(ranges[2]) if rw is not None]

    out = np.zeros(x.shape[:1] + dims_out + (cout,), dtype=np.float64)

    def fill(sl):
        xs, outs = x.data[sl], out[sl]
        for tap, out_sl, in_sl in taps:
            outs[out_sl] += xs[in_sl] @ kernel.data[tap]
        _check_finite(outs, "conv3d")

    _over_rows(fill, out.shape[0], math.prod(out.shape[1:]))

    def rule(g):
        dx = np.zeros(x.shape, dtype=np.float64) if x.requires_grad else None
        dk = np.zeros(kernel.shape, dtype=np.float64) if kernel.requires_grad else None

        # Each tap's kernel gradient is its own GEMM, so the taps split into
        # chunks; a tap reads at most every output row's (Cin + Cout) values.
        def fill_dk(sl):
            for tap, out_sl, in_sl in taps[sl]:
                dk[tap] = x.data[in_sl].reshape(-1, cin).T @ g[out_sl].reshape(-1, cout)

        if dk is not None:
            _over_rows(fill_dk, len(taps), math.prod(out.shape[:-1]) * (cin + cout))
        if dx is not None:  # taps overlap in dx, so they add up in order
            for tap, out_sl, in_sl in taps:
                g_tap = g[out_sl]
                dx[in_sl] += (g_tap.reshape(-1, cout) @ kernel.data[tap].T
                              ).reshape(g_tap.shape[:-1] + (cin,))
        return dx, dk

    return _output("conv3d", (x, kernel), out, rule)


def grid_edges(extent: int, factor: int) -> np.ndarray:
    """Ceil-mode bins of ``factor`` cells; a narrower trailing bin averages
    the cells that exist, so 27 cells with factor 2 make 14 bins."""
    if factor < 1:
        raise TensorError(f"pool factor must be >= 1, got {factor}")
    return np.append(np.arange(0, extent, factor), extent)


def even_edges(extent: int, bins: int) -> np.ndarray:
    """``bins`` bins as even as integer arithmetic allows."""
    if not 1 <= bins <= extent:
        raise TensorError(f"cannot split {extent} cells into {bins} bins")
    return np.floor(np.arange(bins + 1) * extent / bins).astype(np.int64)


def _bins(edges, extent: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=np.int64)
    sizes = np.diff(edges)
    if (edges.ndim != 1 or len(edges) < 2 or edges[0] != 0 or edges[-1] != extent
            or np.any(sizes < 1)):
        raise TensorError(f"bin edges {edges.tolist()} do not split an extent of {extent}")
    return edges[:-1], sizes


def pool(x: Tensor, edges_h, edges_w) -> Tensor:
    """Average the H and W axes of (..., H, W, C) over bins.

    Bin ``i`` of an axis covers cells ``[edges[i], edges[i + 1])``; edges
    rise strictly from 0 to the axis extent (see ``grid_edges`` and
    ``even_edges``).
    """
    hs, hsz = _bins(edges_h, x.shape[-3])
    ws, wsz = _bins(edges_w, x.shape[-2])
    counts = np.outer(hsz, wsz)[..., None]
    data = np.empty(x.shape[:-3] + (len(hs), len(ws), x.shape[-1]))

    def fill(sl):
        xs, ds = x.data[sl], data[sl]
        summed = np.empty(xs.shape[:-3] + (len(hs),) + xs.shape[-2:])
        _bin_sums(xs, hs, hsz, -3, summed)
        _bin_sums(summed, ws, wsz, -2, ds)
        ds /= counts
        _check_finite(ds, "pool")

    _over_rows(fill, x.shape[0], math.prod(x.shape[1:]) if x.ndim > 3 else 0)

    def rule(g):
        gh = np.repeat(g / counts, hsz, axis=-3)
        return (np.repeat(gh, wsz, axis=-2),)

    return _output("pool", (x,), data, rule)


def _bin_sums(x: np.ndarray, starts, sizes, axis: int, out: np.ndarray) -> None:
    """``np.add.reduceat(x, starts, axis)`` into ``out``, in reduceat's own
    order: each bin's first cell plus numpy's pairwise sum of its other
    cells.  A run of equal-size bins is summed at once through strided views.
    """
    tail = (slice(None),) * (-axis - 1)
    first = 0
    for size, run in itertools.groupby(sizes):
        count = len(list(run))
        start, stop = starts[first], starts[first] + size * count
        bins = out[(Ellipsis, slice(first, first + count)) + tail]

        def cell(j):  # cell j of every bin in the run
            return x[(Ellipsis, slice(start + j, stop, size)) + tail]

        if size == 1:
            np.copyto(bins, cell(0))
        else:
            _pairwise_sum(lambda j: cell(j + 1), size - 1, bins)
            bins += cell(0)
        first += count


def _pairwise_sum(cell: Callable[[int], np.ndarray], n: int, out: np.ndarray) -> None:
    """``cell(0) + ... + cell(n - 1)`` elementwise into ``out``, in the order
    of numpy's ``pairwise_sum``: in sequence below 8 terms; up to 128 terms,
    8 interleaved accumulators folded in pairs before the rest are added;
    above that, the sums of two halves split at a multiple of 8.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        rest = np.empty_like(out)
        _pairwise_sum(cell, half, out)
        _pairwise_sum(lambda j: cell(half + j), n - half, rest)
        out += rest
        return
    np.copyto(out, cell(0))
    if n < 8:
        for j in range(1, n):
            out += cell(j)
        return
    acc = [out] + [cell(j).copy() for j in range(1, 8)]
    stop = n - n % 8
    for i in range(8, stop, 8):
        for j in range(8):
            acc[j] += cell(i + j)
    for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for j in range(0, 8, 2 * step):
            acc[j] += acc[j + step]
    for i in range(stop, n):
        out += cell(i)

