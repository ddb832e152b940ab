"""Measure how deep and how often the dynamic certifier's sketches decode.

    PYTHONPATH=src python3 scripts/decode_curve.py --n 32 --k 2

Runs the dynamic certifier of the README library quick start (C = 20,
delta = 0.01, seed 1, over gen_random_stream(n, 0.3, 0.2, seed=7)) at the
given n and k, and finalizes once, observing l0.sample_rows, the decoder
of the batched extraction. Every decode of a component with a nonempty
cut is re-read in full, its block summed over the component's members by
the extraction's own reader, one repetition at a time
(l0.repetition_levels):
a repetition decodes when one of its cells (the shared level-0 cell, then
its levels >= 1 in order) passes the one-sparse test, and the first such
cell is the level it decodes at. Prints one JSON object:

- levels: the level count of every sketch, ceil(log2 U) + 2;
- reps: the repetitions of every sketch, one count for every bank;
- decodes / failures: components decoded, and those no repetition decodes;
- rep_success: the per-repetition decode rate pooled over every
  repetition of every decode. This is the number that sizes
  l0.REP_SCALE: the l0 module docstring bounds it below by 2/3 and
  puts it near 0.72 for large supports;
- first_rep: the latest repetition (counted from 1) that was the first
  to decode in any decode, and late_decodes, the decodes whose first
  decoding repetition is the 10th or later. A smaller repetition count
  keeps every decode whose first decoding repetition is within it, and
  decodes it to the same coordinate;
- deepest_level: the deepest level at which any repetition decoded;
- rep_share: per component, the share of repetitions that decode, as its
  mean, 1st percentile and minimum. Over 10-20 repetitions a
  component's share is a small-sample estimate of rep_success, so its
  minimum is sampling noise, not a bound.
"""
from __future__ import annotations

import argparse
import json

import numpy as np

from streamvc import l0
from streamvc.certificate import CertParams, StreamCertifier
from streamvc.instances import gen_random_stream
from streamvc.l0 import ROW_EMPTY, repetition_levels

# the README library quick start
SCALE_C = 20.0
DELTA = 0.01
SEED = 1
STREAM_SEED = 7
# a decode whose first decoding repetition (counted from 1) is at least
# this is late
LATE_REP = 10


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=32)
    parser.add_argument("--k", type=int, default=2)
    args = parser.parse_args(argv)

    params = CertParams(n=args.n, k=args.k, scale_c=SCALE_C, seed=SEED, delta=DELTA)
    certifier = StreamCertifier(params)
    for e in gen_random_stream(args.n, 0.3, 0.2, seed=STREAM_SEED):
        certifier.update(e)

    reads: list[np.ndarray] = []
    decode = l0.sample_rows
    levels, reps = certifier.store.levels, certifier.store.reps

    def observed(read, rows, passes, z, universe):
        found, sign = decode(read, rows, passes, z, universe)
        block = slice(passes[0].start, passes[-1].stop)
        cells = read(np.flatnonzero(found != ROW_EMPTY), block)
        for counts, index_sums, fingerprints in zip(*cells):
            reads.append(repetition_levels(counts, index_sums, fingerprints, reps, z, universe))
        return found, sign

    l0.sample_rows = observed
    try:
        certificate = certifier.finalize()
    finally:
        l0.sample_rows = decode
    ok = [levels >= 0 for levels in reads]  # per decode, which repetitions decode
    share = np.array([d.mean() for d in ok])
    first = np.array([d.argmax() + 1 for d in ok if d.any()], dtype=np.int64)
    pooled = np.concatenate(ok) if ok else np.zeros(0)

    def stat(reduce, values):
        return round(float(reduce(values)), 4) if len(values) else None

    print(json.dumps({
        "n": args.n,
        "k": args.k,
        "r": params.num_forests,
        "levels": levels,
        "reps": reps,
        "decodes": len(reads),
        "failures": int(np.sum(share == 0)),
        "forest_failures": certificate.forest_failures,
        "rep_success": stat(np.mean, pooled),
        "first_rep": int(first.max()) if len(first) else None,
        "late_decodes": int(np.sum(first >= LATE_REP)),
        "deepest_level": max((int(levels.max()) for levels in reads), default=-1),
        "rep_share": {
            "mean": stat(np.mean, share),
            "p1": stat(lambda a: np.percentile(a, 1), share),
            "min": stat(np.min, share),
        },
    }))


if __name__ == "__main__":
    main()
