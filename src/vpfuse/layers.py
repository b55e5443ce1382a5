"""The `Module` parameter walk and the small layers shared by the text
encoder and decoder head."""

from __future__ import annotations

import math

import numpy as np

from .rng import Rng
from .tensor import Tensor, add, attention, layer_norm, linear, rowwise


class Module:
    """A layer whose parameters are its Tensor attributes.

    ``named_parameters`` names each one by where it sits in ``vars(self)``: a
    Tensor by its attribute, a nested `Module`'s as ``attr.<its name>``, list
    items as ``attr0``, ``attr1``, ... and dict items as ``attr.key``; any
    other value is skipped.  The optimizer, the checkpoint and ``zero_grad``
    all see every Tensor reached this way, so a `Module` holds no other
    Tensor.
    """

    def named_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for attr, value in vars(self).items():
            _collect(params, attr, value)
        return params


def _collect(params: dict[str, Tensor], name: str, value) -> None:
    if isinstance(value, Tensor):
        params[name] = value
    elif isinstance(value, Module):
        for sub, p in value.named_parameters().items():
            params[f"{name}.{sub}"] = p
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _collect(params, f"{name}{i}", item)
    elif isinstance(value, dict):
        for key, item in value.items():
            _collect(params, f"{name}.{key}", item)


def linear_params(rng: Rng, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    w = Tensor(rng.normal((fan_in, fan_out), std=1.0 / math.sqrt(fan_in)),
               requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


class Linear(Module):
    def __init__(self, rng: Rng, fan_in: int, fan_out: int):
        self.w, self.b = linear_params(rng, fan_in, fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


def _norm_affine(dim: int) -> dict[str, Tensor]:
    return {"g": Tensor(np.ones(dim), requires_grad=True),
            "b": Tensor(np.zeros(dim), requires_grad=True)}


class TransformerBlock(Module):
    """Pre-LN single-head self-attention followed by a GELU feed-forward.

    A call runs the block's ops (``composed``) through ``tensor.rowwise``:
    while a tape is open, each op records its own entry as the composed ops
    would; tape-free, the ops run on each chunk of batch rows in turn, and
    no full-size intermediate is kept.
    """

    def __init__(self, rng: Rng, dim: int, hidden: int):
        self.ln1 = _norm_affine(dim)
        self.attn: dict[str, Tensor] = {}
        for name in "qkvo":
            self.attn[f"w{name}"], self.attn[f"b{name}"] = linear_params(rng, dim, dim)
        self.ln2 = _norm_affine(dim)
        self.ffn: dict[str, Tensor] = {}
        self.ffn["w1"], self.ffn["b1"] = linear_params(rng, dim, hidden)
        self.ffn["w2"], self.ffn["b2"] = linear_params(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        # A row's work is its widest intermediate's: a chunk's numpy calls
        # must each be large enough to pay for running beside another chunk.
        _, n, d = x.shape
        return rowwise(self.composed, x, n * max(d, self.ffn["w1"].shape[1], n))

    def composed(self, x: Tensor) -> Tensor:
        """The block's ops on (B, N, D) rows ``x``."""
        ln1, a, ln2, f = self.ln1, self.attn, self.ln2, self.ffn
        h = layer_norm(x, ln1["g"], ln1["b"])
        # Each intermediate but h and x1 stays unnamed, so that tape-free it
        # is freed as soon as the next op has read it.
        x1 = add(x, linear(attention(linear(h, a["wq"], a["bq"]), linear(h, a["wk"], a["bk"]),
                                     linear(h, a["wv"], a["bv"])),
                           a["wo"], a["bo"]))
        return add(x1, linear(linear(layer_norm(x1, ln2["g"], ln2["b"]),
                                     f["w1"], f["b1"], "gelu"), f["w2"], f["b2"]))
