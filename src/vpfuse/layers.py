"""Small parameterized layers shared by the text encoder and decoder head."""

from __future__ import annotations

import math

import numpy as np

from .rng import Rng
from .tensor import Tensor, add, attention, layer_norm, linear


def linear_params(rng: Rng, fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
    w = Tensor(rng.normal((fan_in, fan_out), std=1.0 / math.sqrt(fan_in)),
               requires_grad=True)
    b = Tensor(np.zeros(fan_out), requires_grad=True)
    return w, b


class Linear:
    def __init__(self, rng: Rng, fan_in: int, fan_out: int):
        self.w, self.b = linear_params(rng, fan_in, fan_out)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def parameters(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


class TransformerBlock:
    """Pre-LN single-head self-attention followed by a GELU feed-forward."""

    def __init__(self, rng: Rng, dim: int, hidden: int):
        self.dim = dim
        self.ln1_g = Tensor(np.ones(dim), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(dim), requires_grad=True)
        self.wq, self.bq = linear_params(rng, dim, dim)
        self.wk, self.bk = linear_params(rng, dim, dim)
        self.wv, self.bv = linear_params(rng, dim, dim)
        self.wo, self.bo = linear_params(rng, dim, dim)
        self.ln2_g = Tensor(np.ones(dim), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(dim), requires_grad=True)
        self.w1, self.b1 = linear_params(rng, dim, hidden)
        self.w2, self.b2 = linear_params(rng, hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        h = layer_norm(x, self.ln1_g, self.ln1_b)
        q = linear(h, self.wq, self.bq)
        k = linear(h, self.wk, self.bk)
        v = linear(h, self.wv, self.bv)
        attn = attention(q, k, v, 1.0 / math.sqrt(self.dim))
        x = add(x, linear(attn, self.wo, self.bo))
        h2 = layer_norm(x, self.ln2_g, self.ln2_b)
        ff = linear(linear(h2, self.w1, self.b1, "gelu"), self.w2, self.b2)
        return add(x, ff)

    def parameters(self) -> dict[str, Tensor]:
        return {
            "ln1.g": self.ln1_g, "ln1.b": self.ln1_b,
            "attn.wq": self.wq, "attn.bq": self.bq,
            "attn.wk": self.wk, "attn.bk": self.bk,
            "attn.wv": self.wv, "attn.bv": self.bv,
            "attn.wo": self.wo, "attn.bo": self.bo,
            "ln2.g": self.ln2_g, "ln2.b": self.ln2_b,
            "ffn.w1": self.w1, "ffn.b1": self.b1,
            "ffn.w2": self.w2, "ffn.b2": self.b2,
        }


def prefix_params(prefix: str, params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {f"{prefix}.{k}": v for k, v in params.items()}
