"""Measure how deep and how often the dynamic certifier's sketches decode.

    PYTHONPATH=src python3 scripts/decode_curve.py --n 32 --k 2

Runs the dynamic certifier of the README library quick start (C = 20,
delta = 0.01, seed 1, over gen_random_stream(n, 0.3, 0.2, seed=7)) at the
given n and k, and finalizes once. Every decode of a component with a
nonempty cut is re-read one repetition at a time: a repetition decodes when one of its
cells (the shared level-0 cell, then its levels >= 1 in order) passes the
one-sparse test, and the first such cell is the level it decodes at.
Prints one JSON object:

- levels: the level count of every sketch, ceil(log2 U) + 2;
- deepest_level: the deepest level at which any repetition decoded;
- rep_share: per component, the share of repetitions that decode, as
  its mean, 1st percentile and minimum over all components;
- decodes / failures: components decoded, and those no repetition decodes.

These are the numbers that size the level count and the repetition
count (l0.REP_SCALE).
"""
from __future__ import annotations

import argparse
import json

import numpy as np

from streamvc import forest
from streamvc.certificate import CertParams, StreamCertifier
from streamvc.instances import gen_random_stream
from streamvc.l0 import EMPTY, _one_sparse, from_block

# the README library quick start
SCALE_C = 20.0
DELTA = 0.01
SEED = 1
STREAM_SEED = 7


def decode_levels(counts, index_sums, fingerprints, reps: int, z: int, universe: int):
    """Per repetition, the level its first one-sparse cell sits at, or -1."""
    passing = np.zeros(len(counts), dtype=bool)
    for i in np.flatnonzero(counts).tolist():
        cell = int(counts[i]), int(index_sums[i]), int(fingerprints[i])
        passing[i] = _one_sparse(*cell, z, universe) is not None
    passing = from_block(passing, reps)  # [rep, level]
    return np.where(passing.any(axis=1), passing.argmax(axis=1), -1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--k", type=int, default=2)
    args = parser.parse_args(argv)

    params = CertParams(n=args.n, k=args.k, scale_c=SCALE_C, seed=SEED, delta=DELTA)
    certifier = StreamCertifier(params)
    for e in gen_random_stream(args.n, 0.3, 0.2, seed=STREAM_SEED):
        certifier.update(e)

    shares: list[float] = []
    deepest = -1
    decode = forest.sample_cells

    def observed(counts, index_sums, fingerprints, reps, z, universe):
        nonlocal deepest
        outcome = decode(counts, index_sums, fingerprints, reps, z, universe)
        if outcome is not EMPTY:
            levels = decode_levels(counts, index_sums, fingerprints, reps, z, universe)
            shares.append(float(np.mean(levels >= 0)))
            deepest = max(deepest, int(levels.max()))
        return outcome

    forest.sample_cells = observed
    try:
        certificate = certifier.finalize()
    finally:
        forest.sample_cells = decode
    share = np.array(shares)
    print(json.dumps({
        "n": args.n,
        "k": args.k,
        "r": params.num_forests,
        "levels": certifier.store.levels,
        "reps": [int(certifier.store.reps.min()), int(certifier.store.reps.max())],
        "decodes": len(shares),
        "failures": int(np.sum(share == 0)),
        "forest_failures": certificate.forest_failures,
        "deepest_level": deepest,
        "rep_share": {
            "mean": round(float(share.mean()), 4) if len(share) else None,
            "p1": round(float(np.percentile(share, 1)), 4) if len(share) else None,
            "min": round(float(share.min()), 4) if len(share) else None,
        },
    }))


if __name__ == "__main__":
    main()
