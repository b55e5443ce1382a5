"""Ops and a gradient checker that only the tests use, built on
``vpfuse.tensor``'s ``_emit`` and ``Tape``.

``matmul``, ``transpose`` and ``gelu`` are the composed references the
fused-op tests compare ``linear`` and ``attention`` against, ``tsum`` builds
scalar losses, and ``grad_check`` compares a tape's gradients with central
differences.
"""

from typing import Callable, Optional

import numpy as np

from vpfuse.rng import Rng
from vpfuse.tensor import _INV_SQRT_2PI, Tape, Tensor, TensorError, _emit, _unbroadcast, ndtr


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``, broadcasting the batch axes."""
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


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)
    return _emit("transpose", (a,), data, lambda g: (g.transpose(inv),))


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF."""
    phi_cdf = ndtr(a.data)
    data = a.data * phi_cdf

    def rule(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (phi_cdf + a.data * pdf),)

    return _emit("gelu", (a,), data, rule)


def tsum(a: Tensor) -> Tensor:
    """The sum of every element, a 0-d Tensor."""
    return _emit("sum", (a,), a.data.sum(), lambda g: (np.broadcast_to(g, a.shape).copy(),))


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
    x.grad = None
    with Tape() as tape:
        out = f(x)
        if out.data.shape != ():
            raise TensorError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
        tape.backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros(x.shape)

    n = x.data.size
    if max_coords is not None and max_coords < n:
        rng = Rng(seed, "grad_check")
        coords = sorted(set(rng.integers(n) for _ in range(max_coords)))
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
