"""Dense float64 tensors with reverse-mode automatic differentiation.

Arrays are numpy float64 throughout; the tape, backward rules and gradient
checker are implemented here.  Design points that the rest of the project
relies on:

- Ops record onto the innermost active ``Tape`` (per thread) whenever any
  input requires grad.  With no active tape, forward math runs tape-free,
  which is how inference/eval avoids autograd overhead.
- The tape owns the graph: its entries hold each op's inputs, output and
  backward rule.  A recorded tensor points back at its tape only through a
  weak reference, so the graph has no reference cycles and is freed by
  reference counting as soon as the caller drops the tape and the tensors
  it produced.  The caller must therefore keep the tape alive until
  ``backward``; backward on a tensor whose tape is gone raises
  ``TensorError``.
- ``backward`` accumulates additively into ``.grad``; calling it twice
  without resetting doubles gradients.  ``zero_grad`` is explicit.
- Every op validates that its output is finite and raises ``NonFiniteError``
  immediately otherwise, naming the op.
- Only the broadcasting the model actually needs is supported (numpy-style
  elementwise broadcast plus batched matmul).
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtr  # standard normal CDF, vectorized

from .rng import Rng

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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise TensorError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scalar_mul(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scalar_mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

class _TapeEntry:
    __slots__ = ("name", "inputs", "output", "rule", "fired")

    def __init__(self, name, inputs, output, rule):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.rule = rule
        self.fired = 0


_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of ops; inputs of every entry precede it.

    Confined to the thread that opened it.  ``backward`` replays entries in
    reverse, firing each backward rule at most once per call.
    """

    def __init__(self):
        self.entries: list[_TapeEntry] = []
        self._ref = weakref.ref(self)  # the back-pointer every output gets

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape stack corrupted (exit order mismatch)")
        stack.pop()
        return False

    def __len__(self) -> int:
        return len(self.entries)

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
            entry.fired += 1
            grads = entry.rule(g_out)
            for inp, g in zip(entry.inputs, grads):
                if g is None or not inp.requires_grad:
                    continue
                if inp._tape is ref:
                    acc = local.get(inp)
                    local[inp] = g if acc is None else acc + g
                else:
                    inp.grad = g.copy() if inp.grad is None else inp.grad + g


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into all requires_grad ancestors."""
    if loss._tape is None:
        raise TensorError("tensor was not recorded on any tape (detached tensor)")
    tape = loss._tape()
    if tape is None:
        raise TensorError("the tape that recorded this tensor has been freed; "
                          "keep it alive until backward")
    tape.backward(loss)


def _emit(name: str, inputs: Sequence[Tensor], data: np.ndarray,
          rule: Callable[[np.ndarray], tuple]) -> Tensor:
    _check_finite(data, name)
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
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _emit("add", (a, b), data,
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _emit("sub", (a, b), data,
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _emit("mul", (a, b), data,
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit("scalar_mul", (a,), a.data * c, lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise TensorError("matmul operands must have rank >= 2")
    data = a.data @ b.data

    def rule(g):
        ga = (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
              if a.requires_grad else None)
        gb = (_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
              if b.requires_grad else None)
        return ga, gb

    return _emit("matmul", (a, b), data, rule)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    return _emit("reshape", (a,), data, lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)
    return _emit("transpose", (a,), data, lambda g: (g.transpose(inv),))


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


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _emit("sum", (a,), data, rule)


def tmean(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def rule(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / n, a.shape).copy(),)

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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.ndim <= axis < a.ndim:
        raise TensorError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _emit("softmax", (a,), data, rule)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gamma.data + beta.data

    def rule(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead) if gamma.requires_grad else None
        dbeta = g.sum(axis=lead) if beta.requires_grad else None
        if not x.requires_grad:
            return None, dgamma, dbeta
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _emit("layer_norm", (x, gamma, beta), data, rule)


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log softmax probability of the true class.

    Accepts a single (C,) logit vector with an int label, or a (B, C) batch
    with a length-B label sequence (mean reduction).
    """
    if logits.ndim == 1:
        batched = False
        z = logits.data[None, :]
        labels = np.array([int(label)], dtype=np.int64)
    elif logits.ndim == 2:
        batched = True
        z = logits.data
        labels = np.asarray(label, dtype=np.int64)
        if labels.shape != (z.shape[0],):
            raise TensorError(f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    else:
        raise TensorError(f"cross_entropy expects rank 1 or 2 logits, got {logits.shape}")
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
        dz = p * (float(g) / len(labels))
        return (dz if batched else dz[0],)

    return _emit("cross_entropy", (logits,), data, rule)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise TensorError(f"token id out of range for table of {table.shape[0]} rows")
    data = table.data[ids]

    def rule(g):
        dt = np.zeros(table.shape, dtype=np.float64)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (dt,)

    return _emit("embedding", (table,), data, rule)


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def conv3d_out_dim(dim: int, k: int, stride: int, pad: int) -> int:
    return (dim + 2 * pad - k) // stride + 1


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

    Input is (T, H, W, Cin) or batched (B, T, H, W, Cin); kernel is
    (k, k, k, Cin, Cout).  Output dims follow floor((d + 2p - k)/s) + 1.
    """
    if x.ndim not in (4, 5):
        raise TensorError(f"conv3d input must be rank 4 or 5, got {x.shape}")
    if kernel.ndim != 5 or not (kernel.shape[0] == kernel.shape[1] == kernel.shape[2]):
        raise TensorError(f"conv3d kernel must be (k,k,k,Cin,Cout), got {kernel.shape}")
    k = kernel.shape[0]
    cin, cout = kernel.shape[3], kernel.shape[4]
    if x.shape[-1] != cin:
        raise TensorError(f"input channels {x.shape[-1]} != kernel Cin {cin}")
    stride = tuple(int(s) for s in stride)
    padding = tuple(int(p) for p in padding)
    if any(s < 1 for s in stride):
        raise TensorError(f"stride components must be >= 1, got {stride}")
    if any(p < 0 for p in padding):
        raise TensorError(f"padding must be non-negative, got {padding}")

    lead = x.ndim - 4  # 0 or 1 batch axes
    dims_in = x.shape[lead:lead + 3]
    dims_out = []
    for d, s, p in zip(dims_in, stride, padding):
        if k > d + 2 * p:
            raise TensorError(f"kernel {k} exceeds padded extent {d + 2 * p}")
        o = conv3d_out_dim(d, k, s, p)
        if o <= 0:
            raise TensorError(f"non-positive conv output dim for input {dims_in}")
        dims_out.append(o)
    to, ho, wo = dims_out

    # Only taps whose window overlaps the unpadded input contribute; each
    # reads the valid input range and writes the output range it reaches.
    ranges = [_tap_ranges(d, o, k, s, p)
              for d, o, s, p in zip(dims_in, dims_out, stride, padding)]
    lead_sl = (slice(None),) * lead
    taps = [((dt, dh, dw), lead_sl + (rt[0], rh[0], rw[0]),
             lead_sl + (rt[1], rh[1], rw[1]))
            for dt, rt in enumerate(ranges[0]) if rt is not None
            for dh, rh in enumerate(ranges[1]) if rh is not None
            for dw, rw in enumerate(ranges[2]) if rw is not None]

    out = np.zeros(x.shape[:lead] + (to, ho, wo, cout), dtype=np.float64)
    for tap, out_sl, in_sl in taps:
        out[out_sl] += x.data[in_sl] @ kernel.data[tap]

    def rule(g):
        dx = np.zeros(x.shape, dtype=np.float64) if x.requires_grad else None
        dk = np.zeros(kernel.shape, dtype=np.float64) if kernel.requires_grad else None
        for tap, out_sl, in_sl in taps:
            g_tap = g[out_sl]
            g2 = g_tap.reshape(-1, cout)
            if dk is not None:
                dk[tap] = x.data[in_sl].reshape(-1, cin).T @ g2
            if dx is not None:
                dx[in_sl] += (g2 @ kernel.data[tap].T).reshape(g_tap.shape[:-1] + (cin,))
        return dx, dk

    return _emit("conv3d", (x, kernel), out, rule)


def _pool_bins(extent: int, factor: int) -> tuple[np.ndarray, np.ndarray]:
    starts = np.arange(0, extent, factor)
    sizes = np.minimum(starts + factor, extent) - starts
    return starts, sizes


def _partition(extent: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.floor(np.arange(bins + 1) * extent / bins).astype(np.int64)
    return edges[:-1], np.diff(edges)


def pool_bins(x: Tensor, bins_h: int, bins_w: int) -> Tensor:
    """Average the H and W axes of (..., H, W, C) into bins_h x bins_w bins.

    Bin edges split each axis as evenly as integer arithmetic allows, so any
    bin count up to the axis extent is valid.
    """
    h, w = x.shape[-3], x.shape[-2]
    if not (1 <= bins_h <= h and 1 <= bins_w <= w):
        raise TensorError(f"cannot pool ({h},{w}) grid into ({bins_h},{bins_w}) bins")
    hs, hsz = _partition(h, bins_h)
    ws, wsz = _partition(w, bins_w)
    summed = np.add.reduceat(x.data, hs, axis=-3)
    summed = np.add.reduceat(summed, ws, axis=-2)
    counts = np.outer(hsz, wsz)[..., None]
    data = summed / counts

    def rule(g):
        gh = np.repeat(g / counts, hsz, axis=-3)
        return (np.repeat(gh, wsz, axis=-2),)

    return _emit("pool_bins", (x,), data, rule)


def pool_grid(x: Tensor, factor: int) -> Tensor:
    """Ceil-mode average pooling over the H and W axes of (..., H, W, C).

    Uneven trailing bins average over the cells that exist, so 27 -> 14 with
    factor 2 (last bin covers one row).
    """
    if factor == 1:
        return x
    if factor < 1:
        raise TensorError(f"pool factor must be >= 1, got {factor}")
    h, w = x.shape[-3], x.shape[-2]
    hs, hsz = _pool_bins(h, factor)
    ws, wsz = _pool_bins(w, factor)
    summed = np.add.reduceat(x.data, hs, axis=-3)
    summed = np.add.reduceat(summed, ws, axis=-2)
    counts = np.outer(hsz, wsz)[..., None]
    data = summed / counts

    def rule(g):
        gh = np.repeat(g / counts, hsz, axis=-3)
        return (np.repeat(gh, wsz, axis=-2),)

    return _emit("pool_grid", (x,), data, rule)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5,
               max_coords: Optional[int] = None, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must build a fresh scalar graph from ``x`` on every call.  Error per
    coordinate is |analytic - numeric| / max(1, |analytic|, |numeric|).  With
    ``max_coords`` set, a deterministic subset of coordinates is probed, which
    keeps whole-model checks affordable.
    """
    if eps <= 0:
        raise TensorError("eps must be positive")
    x.requires_grad = True
    x.zero_grad()
    with Tape() as tape:
        out = f(x)
        if out.data.shape != ():
            raise TensorError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        tape.backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros(x.shape)

    n = x.data.size
    if max_coords is not None and max_coords < n:
        rng = Rng(seed, "grad_check")
        coords = sorted(set(int(v) for v in rng.integers(n, (max_coords,))))
    else:
        coords = range(n)

    flat = x.data.reshape(-1)
    aflat = analytic.reshape(-1)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
        worst = max(worst, err)
    return worst
