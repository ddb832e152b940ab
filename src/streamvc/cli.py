"""Command-line front door.

Subcommands: gen (write instance streams), certify (run a certifier over
a stream file), oracle (exact connectivity of the streamed graph), check
(repeated seeded certifications vs. the oracle). Reports are single JSON
objects on stdout; exit codes for certify are 0 = k-connected, 1 = not,
2 = error or abort.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import certificate as cert_mod
from . import instances, streamio
from .errors import StreamError
from .graph import EdgeSet, replay_stream
from .insertion import InsertionCertifier
from .oracle import is_k_connected, vertex_connectivity
from .seeds import derive_seed


def _gen(args) -> int:
    if args.kind == "named":
        if args.name is None:
            raise ValueError("gen named needs --name, e.g. --name 'complete(5)'")
        g = instances.gen_named(args.name)
        events = instances.edges_to_stream(g)
        streamio.write_stream(args.out, g.n, args.k, events, comment=f"named {args.name}")
    elif args.kind == "random":
        events = instances.gen_random_stream(
            args.n, args.density, args.delete_frac, args.seed
        )
        replay_stream(events, args.n)  # validate before writing
        streamio.write_stream(
            args.out,
            args.n,
            args.k,
            events,
            comment=f"random density={args.density} delete_frac={args.delete_frac} seed={args.seed}",
        )
    elif args.kind == "disjointness":
        force = "disjoint" if args.disjoint else ("intersecting" if args.intersecting else None)
        inst = instances.random_disjointness(args.n, args.k, args.seed, force=force)
        alice, bob = instances.gen_disjointness(inst)
        streamio.write_stream(
            args.out,
            args.n,
            args.k,
            alice + bob,
            comment=f"disjointness seed={args.seed} intersecting={inst.intersecting}",
        )
    elif args.kind == "planted":
        g, cut = instances.gen_planted_cut(
            args.n, args.k, args.seed, extra_st_edges=args.extra_st_edges
        )
        streamio.write_stream(
            args.out,
            args.n,
            args.k,
            instances.edges_to_stream(g),
            comment=f"planted cut={sorted(cut)} seed={args.seed}",
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind}")
    print(json.dumps({"command": "gen", "kind": args.kind, "out": str(args.out)}))
    return 0


def _params_from_args(args, n: int, k: int) -> cert_mod.CertParams:
    scale = args.scale_c
    if scale is None:
        scale = cert_mod.PAPER_SCALE if args.paper_mode else cert_mod.TEST_SCALE
    return cert_mod.CertParams(n=n, k=k, scale_c=scale, seed=args.seed, delta=args.delta)


def _certify_stream(
    mode: str, params: cert_mod.CertParams, events, g: EdgeSet | None, **certifier_kw
) -> tuple[cert_mod.Certificate, bool]:
    """Build the dynamic or offline certificate of one stream and decide it.

    The dynamic certifier reads (and validates) the events; the offline
    certificate is built from the already replayed support graph `g`.
    """
    if mode == "dynamic":
        certifier = cert_mod.StreamCertifier(params, **certifier_kw)
        for e in events:
            certifier.update(e)
        certificate = certifier.finalize()
    else:
        certificate = cert_mod.build_certificate_offline(g, params)
    return certificate, cert_mod.decide_k_connected(certificate)


def _certify(args) -> int:
    started = time.perf_counter()
    n, k_file, events = streamio.read_stream(args.stream)
    k = args.k if args.k is not None else k_file
    report = {
        "command": "certify",
        "params": {"n": n, "k": k, "seed": args.seed, "mode": args.mode},
    }
    certificate = None
    g = None  # the streamed support graph, replayed at most once
    if args.mode == "insertion":
        ins = InsertionCertifier(n, k)
        for e in events:
            ins.offer_event(e)
        retained = ins.finalize()
        verdict = is_k_connected(retained, k)
        report["verdict"] = verdict
        report["certificate_edges"] = len(retained)
        report["sum_Vi"] = None
        report["forest_failures"] = 0
        report["measured_sketch_bytes"] = 0
    else:
        params = _params_from_args(args, n, k)
        report["params"].update(
            {"C": params.scale_c, "r": params.num_forests, "delta": params.resolved_delta}
        )
        if args.mode == "offline":
            g = replay_stream(events, n).support()
        certificate, verdict = _certify_stream(
            args.mode,
            params,
            events,
            g,
            space_cap_bytes=args.space_cap_bytes,
        )
        report["verdict"] = verdict
        report["certificate_edges"] = len(certificate.edges)
        report["sum_Vi"] = certificate.sum_subset_sizes
        report["forest_failures"] = certificate.forest_failures
        report["measured_sketch_bytes"] = certificate.sketch_bytes
    if args.oracle:
        if g is None:
            g = replay_stream(events, n).support()
        report["oracle_verdict"] = is_k_connected(g, k)
    if args.cert_out and certificate is not None:
        Path(args.cert_out).write_text(certificate.to_json() + "\n", encoding="utf-8")
        report["cert_out"] = str(args.cert_out)
    report["wall_time_s"] = round(time.perf_counter() - started, 6)
    print(json.dumps(report))
    return 0 if report["verdict"] else 1


def _oracle(args) -> int:
    n, _, events = streamio.read_stream(args.stream)
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
    n, k_file, events = streamio.read_stream(args.stream)
    k = args.k if args.k is not None else k_file
    g = replay_stream(events, n).support()
    truth = is_k_connected(g, k)
    matches = 0
    sizes = []
    for trial in range(args.trials):
        trial_seed = derive_seed(args.seed, "trial", trial)
        params = cert_mod.CertParams(
            n=n,
            k=k,
            scale_c=args.scale_c if args.scale_c is not None else cert_mod.TEST_SCALE,
            seed=trial_seed,
            delta=args.delta,
        )
        certificate, verdict = _certify_stream(args.mode, params, events, g)
        matches += int(verdict == truth)
        sizes.append(len(certificate.edges))
    report = {
        "command": "check",
        "params": {"n": n, "k": k, "trials": args.trials, "seed": args.seed, "mode": args.mode},
        "oracle_verdict": truth,
        "match_rate": matches / args.trials if args.trials else None,
        "certificate_edges": {
            "min": min(sizes) if sizes else None,
            "max": max(sizes) if sizes else None,
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
    p_gen.add_argument("kind", choices=["named", "random", "disjointness", "planted"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--name", help="graph name for kind=named, e.g. complete(5)")
    p_gen.add_argument("--n", type=int, default=8)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--delete-frac", type=float, default=0.0)
    p_gen.add_argument("--extra-st-edges", type=int, default=0)
    force = p_gen.add_mutually_exclusive_group()
    force.add_argument("--disjoint", action="store_true")
    force.add_argument("--intersecting", action="store_true")
    p_gen.set_defaults(func=_gen)

    p_cert = sub.add_parser("certify", help="run a certifier over a stream file")
    p_cert.add_argument("stream")
    p_cert.add_argument("--k", type=int, default=None, help="override the header k")
    p_cert.add_argument("--mode", choices=["dynamic", "insertion", "offline"], default="dynamic")
    p_cert.add_argument("--scale-c", type=float, default=None)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--delta", type=float, default=None)
    p_cert.add_argument(
        "--space-cap-bytes",
        type=int,
        default=None,
        help="dynamic mode: cap on the sketch state (default: physical memory)",
    )
    p_cert.add_argument("--paper-mode", action="store_true")
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

    p_check = sub.add_parser("check", help="seeded certification accuracy vs. the oracle")
    p_check.add_argument("stream")
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=20)
    p_check.add_argument("--scale-c", type=float, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--delta", type=float, default=None)
    p_check.add_argument("--mode", choices=["offline", "dynamic"], default="offline")
    p_check.set_defaults(func=_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StreamError, ValueError, OSError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


def entry() -> None:  # console-script target
    sys.exit(main())


if __name__ == "__main__":
    entry()
