"""Portable deterministic random numbers (splitmix64).

All stochastic pieces of the package (noise distortion, phantom synthesis)
draw from this generator so that outputs are bit-identical for a given
seed, independent of numpy version or platform. The generator is the
splitmix64 sequence: draw i for seed s mixes the state

    s + (i + 1) * 0x9E3779B97F4A7C15  (mod 2**64)

through the standard two-round xor-multiply finalizer. Uniform doubles
take the top 53 bits; normal deviates use the Box-Muller transform with
one normal per pair of uniforms.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = float(1 << 53)


def raw_u64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws ``count`` raw 64-bit outputs, starting at stream position ``offset``."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform doubles in (0, 1], one per raw draw."""
    bits = raw_u64(seed, count, offset)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) / _U53


def normals(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Standard normal deviates via Box-Muller.

    Deviate i consumes uniform draws 2i and 2i+1 (after ``offset`` raw
    draws), so disjoint offsets yield independent-by-construction blocks.
    """
    u = uniforms(seed, 2 * count, offset)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    return r * np.cos(2.0 * np.pi * u[1::2])


class Stream:
    """Sequential view over one seed's draw sequence.

    Keeps a cursor so successive requests consume disjoint raw draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._pos = 0

    def uniforms(self, count: int) -> np.ndarray:
        out = uniforms(self.seed, count, self._pos)
        self._pos += count
        return out

    def normals(self, count: int) -> np.ndarray:
        out = normals(self.seed, count, self._pos)
        self._pos += 2 * count
        return out

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * float(self.uniforms(1)[0])
