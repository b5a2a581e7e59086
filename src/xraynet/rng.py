"""Deterministic pseudo-randomness: PCG32 generators with purpose-tagged streams.

Every random decision in the toolkit (parameter init, sampling, augmentation,
synthetic data) draws from a `Pcg32` derived via `derive_stream(base_seed,
tag, index)`. Streams are independent of the order in which they are created,
so batch composition and augmentation stay reproducible regardless of
internal scheduling.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_PCG_MULT = 6364136223846793005


def _mix64(x: int) -> int:
    # splitmix64 finalizer: strong 64-bit avalanche, used only for key derivation
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class Pcg32:
    """PCG32 (XSH-RR variant): 64-bit state, 64-bit stream, 32-bit output."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, stream: int = 0):
        self._state = 0
        self._inc = ((stream << 1) | 1) & _MASK64
        self.next_u32()
        self._state = (self._state + (seed & _MASK64)) & _MASK64
        self.next_u32()

    def next_u32(self) -> int:
        old = self._state
        self._state = (old * _PCG_MULT + self._inc) & _MASK64
        xorshifted = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & 0xFFFFFFFF

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One double in [low, high) with 32 bits of resolution."""
        return low + (high - low) * (self.next_u32() * 2.0**-32)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), bit-identical to n calls of `next_u32() * 2**-32`.

        All n states come at once by LCG jump-ahead (Brown 1994, "Random
        Number Generation with Arbitrary Strides"; O'Neill 2014, PCG paper
        §4.3): the affine map of m steps, (A, C), is squared each round in
        Python ints, and `st[m:2m] = A*st[:m] + C` in uint64, which wraps
        mod 2**64 as the scalar update does. The generator is left where n
        `next_u32` calls would leave it.
        """
        st = np.empty(n, dtype=np.uint64)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        st[0] = self._state
        a, c, m = _PCG_MULT, self._inc, 1
        with np.errstate(over="ignore"):
            while m < n:
                k = min(m, n - m)
                np.add(st[:k] * np.uint64(a), np.uint64(c), out=st[m:m + k])
                a, c, m = (a * a) & _MASK64, (c * a + c) & _MASK64, 2 * m
        self._state = (int(st[-1]) * _PCG_MULT + self._inc) & _MASK64
        x = ((st >> 18) ^ st) >> 27
        x &= 0xFFFFFFFF
        rot = st >> 59
        out = (x >> rot) | ((x << ((32 - rot) & 31)) & 0xFFFFFFFF)
        return out.astype(np.float64) * 2.0**-32

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        size = int(np.prod(shape)) if shape else 1
        u = self.uniforms(size)
        return (low + (high - low) * u).reshape(shape)

    def randint_below(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if not 1 <= n <= 1 << 32:
            # above 2**32 the acceptance limit below is 0 and no draw is accepted
            raise ValueError(f"randint_below requires 1 <= n <= 2**32, got {n}")
        limit = (1 << 32) - ((1 << 32) % n)
        while True:
            u = self.next_u32()
            if u < limit:
                return u % n

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint_below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64): it would alias the seed mod 2**64."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def derive_stream(base_seed: int, tag: str, index: int = 0) -> Pcg32:
    """Independent generator for (base_seed, tag, index).

    The same triple always yields the same sequence; distinct triples yield
    unrelated sequences. Results do not depend on how many other streams
    were derived or consumed before this one. `base_seed` must lie in
    [0, 2**64) (`check_seed`).
    """
    check_seed(base_seed)
    key = _mix64(base_seed ^ _fnv1a64(tag.encode("utf-8")))
    key = _mix64(key ^ _mix64((index & _MASK64) + 0x9E3779B97F4A7C15))
    return Pcg32(seed=_mix64(key + 1), stream=_mix64(key + 2))
