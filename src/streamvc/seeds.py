"""Deterministic seed derivation and hashing helpers.

Every random choice in the package flows from one root seed through
labelled derivations, so whole runs replay bit-for-bit. Labels are plain
strings/ints, e.g. derive_seed(seed, "subset", i) for the i-th sampled
vertex subset and derive_seed(derive_seed(seed, "sketch"), "round", r)
for the sketch battery of contraction round r, which every bank shares
(see the streamvc.forest module docstring).
"""
from __future__ import annotations

import hashlib

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(root: int, *labels) -> int:
    """Derive a 64-bit child seed from a root seed and a label path."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest(), "little")


def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (wraps mod 2^64)."""
    z = (x + np.uint64(_GOLDEN)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def mix_u64(seed, values: np.ndarray) -> np.ndarray:
    """Seeded uniform-ish uint64 per value (treated as fully random).

    seed is one int for every value, or a uint64 array of per-value seeds
    that broadcasts against values.
    """
    v = np.asarray(values, dtype=np.uint64)
    s = np.asarray(seed & _MASK64, dtype=np.uint64)
    x = (v + np.uint64(1)) * np.uint64(_GOLDEN) + s
    return splitmix64(x)


def subset_mask(subset_seed, n: int, k: int) -> np.ndarray:
    """Boolean membership mask: each vertex kept with probability 1/k.

    Membership is a pure hash of (subset_seed, vertex), so it can be
    recomputed instead of stored. subset_seed is one int, giving an [n]
    mask, or a uint64 array of r seeds, giving an [r, n] mask whose row i
    is subset_mask(subset_seed[i], n, k). For k=1 every vertex is kept.
    For k>1 the probability is floor(2^64/k)/2^64, i.e. 1/k up to
    quantization.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if np.ndim(subset_seed):
        subset_seed = np.asarray(subset_seed, dtype=np.uint64)[:, None]
    if k == 1:
        return np.ones(np.broadcast_shapes(np.shape(subset_seed), (n,)), dtype=bool)
    threshold = np.uint64((1 << 64) // k)
    return mix_u64(subset_seed, np.arange(n)) < threshold
