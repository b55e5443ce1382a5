"""Portable counter-based PRNG used for every random draw in the project.

Checkpoint determinism and cross-run reproducibility hinge on all randomness
coming from one stated generator rather than platform RNGs.  The generator is
SplitMix64 used in counter mode: output i of a stream is ``mix64(seed + (i+1)
* GAMMA)``, which vectorizes cleanly over numpy uint64 and produces identical
bits on every platform.

Streams are derived from a master seed by hashing a text label (FNV-1a 64)
into the seed, so independent purposes (data generation, parameter init,
fusion sampling, ...) never share a sequence.
"""

from __future__ import annotations

import numpy as np

# SplitMix64 constants (Steele, Lea, Flood 2014).
GAMMA = np.uint64(0x9E3779B97F4A7C15)
MIX_A = np.uint64(0xBF58476D1CE4E5B9)
MIX_B = np.uint64(0x94D049BB133111EB)

# FNV-1a 64-bit constants, used only for label hashing.
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GAMMA_INT, _MIX_A_INT, _MIX_B_INT = int(GAMMA), int(MIX_A), int(MIX_B)


def fnv1a64(text: str) -> int:
    """Hash a stream label to 64 bits."""
    h = FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & _MASK64
    return h


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * MIX_A
    z = (z ^ (z >> _U64(27))) * MIX_B
    return z ^ (z >> _U64(31))


def _mix64_int(z: int) -> int:
    """``_mix64`` on one Python int in [0, 2**64), with the same wrap-around."""
    z = ((z ^ (z >> 30)) * _MIX_A_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B_INT) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed: int, label: str) -> int:
    """Derive the base state of a named stream from the master seed."""
    z = (master_seed ^ fnv1a64(label)) & _MASK64
    return _mix64_int((z + _GAMMA_INT) & _MASK64)


class Rng:
    """Stateful view over one SplitMix64 stream.

    Every method consumes a deterministic number of raw 64-bit outputs, so
    draw sequences are stable regardless of how draws are batched.
    """

    def __init__(self, master_seed: int, label: str):
        self._base_int = stream_seed(master_seed, label)
        self._base = _U64(self._base_int)
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._base + idx * GAMMA)

    def _raw1(self) -> int:
        """One raw output in Python ints: equal to ``_raw(1)[0]`` without the
        numpy round trip that dominates scalar draws."""
        self._counter += 1
        return _mix64_int((self._base_int + self._counter * _GAMMA_INT) & _MASK64)

    def uniform(self, shape=()) -> np.ndarray:
        """Uniform float64 in [0, 1) with 53 random mantissa bits."""
        if not shape:
            # Below 2**53, int -> float and the power-of-two scale are exact,
            # so this equals the vector path bit for bit.
            return float(self._raw1() >> 11) * (2.0 ** -53)
        n = int(np.prod(shape))
        bits = self._raw(n) >> _U64(11)
        vals = bits.astype(np.float64) * (2.0 ** -53)
        return vals.reshape(shape)

    def normal(self, shape, std: float) -> np.ndarray:
        """Zero-mean normal of ``std`` via Box-Muller on uniform pairs."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        u1 = 1.0 - np.asarray(self._raw(m) >> _U64(11), dtype=np.float64) * (2.0 ** -53)
        u2 = np.asarray(self._raw(m) >> _U64(11), dtype=np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n] * std
        return z.reshape(shape)

    def integers(self, high: int) -> int:
        """An integer in [0, high), high >= 1. Uses floor(u * high); the
        modulo-style bias is below 2^-50 for desk-scale high and irrelevant here."""
        if high < 1:
            raise ValueError(f"cannot draw an integer from the empty range [0, {high})")
        return min(int(self.uniform() * high), high - 1)

    def choice_distinct(self, high: int, k: int) -> np.ndarray:
        """k distinct integers from [0, high), in draw order."""
        if k > high:
            raise ValueError(f"cannot draw {k} distinct values from range {high}")
        picked: list[int] = []
        seen = set()
        while len(picked) < k:
            v = self.integers(high)
            if v not in seen:
                seen.add(v)
                picked.append(v)
        return np.array(picked, dtype=np.int64)
