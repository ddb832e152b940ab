"""Command-line front door.

Subcommands:

- gen KIND writes an instance stream file. Every kind takes --out and
  --k; named takes --name (required); random takes --n --seed --density
  --delete-frac; disjointness takes --n --seed and --disjoint or
  --intersecting; planted takes --n --seed --extra-st-edges. A flag of
  another kind, or an abbreviated flag, is a usage error.
- certify runs a certifier over a stream file.
- oracle reports the exact connectivity of the streamed graph.
- check runs repeated seeded certifications against the oracle.

certify and check share --k (default: the header's k), --seed, --scale-c
(the forest-count constant C, default TEST_SCALE = 20; the analysis
constant is --scale-c 200) and --delta. Reports are single JSON objects
on stdout; exit codes for certify are 0 = k-connected, 1 = not, 2 =
any failure: a usage error, an abort or any exception (running out of
memory and an internal error included), reported as one JSON error line
on stderr. certify, check and oracle refuse a header n above
forest.MAX_N (exit 2) before they build anything for it.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import certificate as cert_mod
from . import instances, streamio
from .forest import check_vertex_count
from .graph import replay_stream
from .insertion import InsertionCertifier
from .oracle import is_k_connected, vertex_connectivity
from .seeds import derive_seed


def _named(args):
    g = instances.gen_named(args.name)
    return g.n, instances.edges_to_stream(g), f"named {args.name}"


def _random(args):
    events = instances.gen_random_stream(args.n, args.density, args.delete_frac, args.seed)
    replay_stream(events, args.n)  # validate before writing
    comment = f"random density={args.density} delete_frac={args.delete_frac} seed={args.seed}"
    return args.n, events, comment


def _disjointness(args):
    inst = instances.random_disjointness(args.n, args.k, args.seed, force=args.force)
    alice, bob = instances.gen_disjointness(inst)
    return args.n, alice + bob, f"disjointness seed={args.seed} intersecting={inst.intersecting}"


def _planted(args):
    g, cut = instances.gen_planted_cut(
        args.n, args.k, args.seed, extra_st_edges=args.extra_st_edges
    )
    return args.n, instances.edges_to_stream(g), f"planted cut={sorted(cut)} seed={args.seed}"


def _gen(args) -> int:
    n, events, comment = args.build(args)
    streamio.write_stream(args.out, n, args.k, events, comment=comment)
    print(json.dumps({"command": "gen", "kind": args.kind, "out": str(args.out)}))
    return 0


def _read(args):
    """The stream's n, the k to test, its events and a cached replay of its support graph."""
    n, k_file, events = streamio.read_stream(args.stream)
    check_vertex_count(n)
    support = functools.cache(lambda: replay_stream(events, n).support())
    return n, k_file if args.k is None else args.k, events, support


def _certify_stream(args, n: int, k: int, seed: int, events, support):
    """Run args.mode's certifier over one stream and decide it.

    Returns the certificate (None in insertion mode, which keeps none and
    reads no C, delta or cap), the forest-count report parameters and the
    report's result fields. The dynamic certifier reads (and validates)
    the events; the offline certificate is built from support().
    """
    if args.mode == "insertion":
        ins = InsertionCertifier(n, k)
        for e in events:
            ins.offer_event(e)
        retained = ins.finalize()
        return None, {}, {
            "verdict": is_k_connected(retained, k),
            "certificate_edges": len(retained),
            "sum_Vi": None,
            "forest_failures": 0,
            "measured_sketch_bytes": 0,
        }
    params = cert_mod.CertParams(n=n, k=k, scale_c=args.scale_c, seed=seed, delta=args.delta)
    forest_params = {"C": params.scale_c, "r": params.num_forests, "delta": params.resolved_delta}
    if args.mode == "dynamic":
        certifier = cert_mod.StreamCertifier(
            params, space_cap_bytes=getattr(args, "space_cap_bytes", None)
        )
        for e in events:
            certifier.update(e)
        certificate = certifier.finalize()
    else:
        certificate = cert_mod.build_certificate_offline(support(), params)
    return certificate, forest_params, {
        "verdict": cert_mod.decide_k_connected(certificate),
        "certificate_edges": len(certificate.edges),
        "sum_Vi": certificate.sum_subset_sizes,
        "forest_failures": certificate.forest_failures,
        "measured_sketch_bytes": certificate.sketch_bytes,
    }


def _certify(args) -> int:
    if args.cert_out and args.mode == "insertion":
        raise ValueError("--cert-out needs a certificate; insertion mode keeps none")
    started = time.perf_counter()
    n, k, events, support = _read(args)
    certificate, forest_params, fields = _certify_stream(args, n, k, args.seed, events, support)
    params = {"n": n, "k": k, "seed": args.seed, "mode": args.mode, **forest_params}
    report = {"command": "certify", "params": params, **fields}
    if args.oracle:
        report["oracle_verdict"] = is_k_connected(support(), k)
    if args.cert_out:
        Path(args.cert_out).write_text(certificate.to_json() + "\n", encoding="utf-8")
        report["cert_out"] = str(args.cert_out)
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report))
    return 0 if report["verdict"] else 1


def _oracle(args) -> int:
    n, _, events = streamio.read_stream(args.stream)
    check_vertex_count(n)
    g = replay_stream(events, n).support()
    if args.k is not None:
        verdict = is_k_connected(g, args.k)
        print(json.dumps({"command": "oracle", "n": n, "k": args.k, "is_k_connected": verdict}))
    else:
        print(json.dumps({"command": "oracle", "n": n, "vertex_connectivity": vertex_connectivity(g)}))
    return 0


def _check(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    started = time.perf_counter()
    n, k, events, support = _read(args)
    truth = is_k_connected(support(), k)
    matches = 0
    sizes = []
    for trial in range(args.trials):
        seed = derive_seed(args.seed, "trial", trial)
        _, _, fields = _certify_stream(args, n, k, seed, events, support)
        matches += int(fields["verdict"] == truth)
        sizes.append(fields["certificate_edges"])
    report = {
        "command": "check",
        "params": {"n": n, "k": k, "trials": args.trials, "seed": args.seed, "mode": args.mode},
        "oracle_verdict": truth,
        "match_rate": matches / args.trials if args.trials else None,
        "certificate_edges": {
            "min": min(sizes, default=None),
            "max": max(sizes, default=None),
            "mean": sum(sizes) / len(sizes) if sizes else None,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    print(json.dumps(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamvc",
        description="k-vertex-connectivity of dynamic edge streams via sparse certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance stream file")
    p_gen.set_defaults(func=_gen)
    # no prefix matching: `named --n 6` would otherwise be read as --name 6
    kind = functools.partial(
        p_gen.add_subparsers(dest="kind", required=True).add_parser, allow_abbrev=False
    )
    gen_opts = argparse.ArgumentParser(add_help=False)
    gen_opts.add_argument("--out", required=True)
    gen_opts.add_argument("--k", type=int, default=1)
    sized_opts = argparse.ArgumentParser(add_help=False, parents=[gen_opts])
    sized_opts.add_argument("--n", type=int, default=8)
    sized_opts.add_argument("--seed", type=int, default=0)

    p = kind("named", parents=[gen_opts], help="a named graph's edges")
    p.add_argument("--name", required=True, help="e.g. complete(5), cycle(6), petersen")
    p.set_defaults(build=_named)
    p = kind("random", parents=[sized_opts], help="a random dynamic stream")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--delete-frac", type=float, default=0.0)
    p.set_defaults(build=_random)
    p = kind("disjointness", parents=[sized_opts], help="a disjointness reduction")
    force = p.add_mutually_exclusive_group()
    force.add_argument("--disjoint", dest="force", action="store_const", const="disjoint")
    force.add_argument("--intersecting", dest="force", action="store_const", const="intersecting")
    p.set_defaults(build=_disjointness)
    p = kind("planted", parents=[sized_opts], help="a graph with a planted separator")
    p.add_argument("--extra-st-edges", type=int, default=0)
    p.set_defaults(build=_planted)

    cert_opts = argparse.ArgumentParser(add_help=False)
    cert_opts.add_argument("stream")
    cert_opts.add_argument("--k", type=int, default=None, help="override the header k")
    cert_opts.add_argument("--seed", type=int, default=0)
    cert_opts.add_argument("--scale-c", type=float, default=cert_mod.TEST_SCALE)
    cert_opts.add_argument("--delta", type=float, default=None)

    p_cert = sub.add_parser(
        "certify", parents=[cert_opts], help="run a certifier over a stream file"
    )
    p_cert.add_argument("--mode", choices=["dynamic", "insertion", "offline"], default="dynamic")
    p_cert.add_argument(
        "--space-cap-bytes",
        type=int,
        default=None,
        help="dynamic mode: cap on the sketch state (default: physical memory)",
    )
    p_cert.add_argument("--oracle", action="store_true", help="also report the exact verdict")
    p_cert.add_argument(
        "--cert-out",
        default=None,
        help="write the full certificate JSON here (dynamic/offline modes)",
    )
    p_cert.set_defaults(func=_certify)

    p_oracle = sub.add_parser("oracle", help="exact connectivity of the streamed graph")
    p_oracle.add_argument("stream")
    p_oracle.add_argument("--k", type=int, default=None)
    p_oracle.set_defaults(func=_oracle)

    p_check = sub.add_parser(
        "check", parents=[cert_opts], help="seeded certification accuracy vs. the oracle"
    )
    p_check.add_argument("--trials", type=int, default=20)
    p_check.add_argument("--mode", choices=["offline", "dynamic"], default="offline")
    p_check.set_defaults(func=_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # exit 1 means "not k-connected", so every failure is 2
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
