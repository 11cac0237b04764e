"""Command-line front end.

Exit codes: 0 all verdicts verified, 2 a verification refuted,
3 invalid input (bad flags, unknown names, malformed files, invalid
certificates, requests too large for memory), 4 internal inconsistency
(an input that contradicts itself, or a fault of the checker).

Epsilon flags use the exact syntax 2^-k; output is deterministic, with
timings withheld unless --timings is passed (so repeat runs are
byte-identical).  EXTENLAB_DATA_DIR, when set, resolves relative input
paths for `certify`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import dyadic
from .certificates import certificate_for, check_certificate
from .errors import ExtenlabError, InvalidArgument, UnknownName
from .families import example_family
from .runs import list_examples, run_example
from .serialization import (_gc_paused, certificate_from_json,
                            certificate_to_json, dumps, map_to_json,
                            pair_to_ref, problem_from_json, space_to_ref)
from .spaces import OPC_MAX_BLOCKS, catalog_names, cone, make_space, \
    opc_disjoint_union, product_with

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_INVALID = 3
EXIT_INCONSISTENT = 4


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _data_path(path: str) -> Path:
    p = Path(path)
    base = os.environ.get("EXTENLAB_DATA_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _cmd_example_run(args) -> int:
    eps = dyadic.parse_epsilon(args.epsilon) if args.epsilon else None
    report = run_example(args.name, epsilon=eps, n_max=args.n_max)
    if args.format == "json":
        text = dumps(report.as_dict(include_timing=args.timings)) + "\n"
    elif args.format == "csv":
        text = report.to_csv()
    else:
        text = report.to_text()
        if args.timings:
            text += f"timing: {report.timing_seconds:.3f}s\n"
    _emit(text, args.out)
    if args.emit_certificates:
        _write_run_artifacts(report, args)
    return EXIT_OK if report.ok else EXIT_REFUTED


def _write_run_artifacts(report, args):
    """Problem and certificate files for the family runs, for re-checking."""
    if report.family is None:
        raise InvalidArgument(f"{report.name} does not emit certificate files")
    target = Path(args.emit_certificates)
    target.mkdir(parents=True, exist_ok=True)
    fam = example_family(report.family, report.epsilon)
    problem = {"pair": pair_to_ref(fam.pair),
               "map": map_to_json(fam.limit)}
    (target / "problem.json").write_text(dumps(problem) + "\n",
                                         encoding="utf-8")
    cert = certificate_for(report.family, None, report.epsilon)
    (target / "certificate.json").write_text(
        dumps(certificate_to_json(cert, report.epsilon)) + "\n",
        encoding="utf-8")


def _cmd_example_list(args) -> int:
    entries = list_examples()
    if args.format == "json":
        _emit(dumps(entries) + "\n", args.out)
    else:
        width = max(len(e["name"]) for e in entries)
        lines = [f"{e['name']:<{width}}  [{e['default_epsilon']}, "
                 f"n<={e['default_n_max']}]  {e['claim']}" for e in entries]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    try:
        with _gc_paused():
            problem = json.loads(_data_path(args.problem).read_text("utf-8"))
            cert_data = json.loads(
                _data_path(args.certificate).read_text("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        sys.stderr.write(f"cannot read inputs: {exc}\n")
        return EXIT_INVALID
    try:
        pair, phi = problem_from_json(problem)
        cert = certificate_from_json(cert_data, pair, phi.codomain)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            ExtenlabError) as exc:
        sys.stderr.write(f"malformed problem or certificate: {exc}\n")
        return EXIT_INVALID
    try:
        verdict = check_certificate(pair, phi, cert)
    except Exception as exc:            # a fault of the checker, not the input
        sys.stderr.write(f"checker fault: {exc!r}\n")
        return EXIT_INCONSISTENT
    _emit(dumps(verdict.as_dict()) + "\n", args.out)
    return {"verified": EXIT_OK, "refuted": EXIT_REFUTED,
            "invalid-certificate": EXIT_INVALID,
            "inconsistent-input": EXIT_INCONSISTENT}[verdict.status]


def _cmd_space_info(args) -> int:
    eps = dyadic.parse_epsilon(args.epsilon)
    space = make_space(args.name, eps)
    info = {"name": space.name,
            "epsilon": dyadic.format_epsilon(eps),
            "net_size": len(space.net),
            "dimension": space.net.dimension,
            "path_components": space.component_count(),
            "clopen_atoms": len(space.clopen.atoms()),
            "retractions": sorted(space.retractions),
            "basepoints": sorted(space.basepoints)}
    if args.format == "json":
        _emit(dumps(info) + "\n", args.out)
    else:
        lines = [f"{k}: {v}" for k, v in info.items()]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_space_sketch(args) -> int:
    eps = dyadic.parse_epsilon(args.epsilon)
    space = make_space(args.name, eps)
    if space.net.dimension != 2:
        raise InvalidArgument("sketches are for planar spaces")
    pts = space.net.points
    lo = pts.min(axis=0) - 0.05
    hi = pts.max(axis=0) + 0.05
    span = (hi - lo).max()
    scale = 640.0 / span
    rows = ['<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="640" height="640" viewBox="0 0 640 640">']
    for x, y in pts:
        px = (x - lo[0]) * scale
        py = 640 - (y - lo[1]) * scale
        rows.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1" fill="black"/>')
    rows.append("</svg>")
    _emit("\n".join(rows) + "\n", args.out)
    return EXIT_OK


def _cmd_construct(args) -> int:
    eps = dyadic.parse_epsilon(args.epsilon)
    if args.op == "cone":
        space = cone(make_space(args.base, eps))
    elif args.op.startswith("product-"):
        space = product_with(make_space(args.base, eps), args.op[8:])
    elif args.op == "opc":
        if not 1 <= args.blocks <= OPC_MAX_BLOCKS:
            raise InvalidArgument(f"opc takes 1..{OPC_MAX_BLOCKS} blocks")
        space = opc_disjoint_union([make_space(args.base, eps)] * args.blocks)
    else:
        raise UnknownName(f"unknown construction {args.op!r}")
    _emit(dumps(space_to_ref(space)) + "\n", args.out)
    return EXIT_OK


@functools.cache                  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extenlab",
        description="finite-resolution continuous-extension laboratory")
    sub = parser.add_subparsers(dest="command")

    example = sub.add_parser("example", help="run or list the reproductions")
    exsub = example.add_subparsers(dest="subcommand")
    run_p = exsub.add_parser("run", help="run one reproduction")
    run_p.add_argument("name")
    run_p.add_argument("--epsilon", help="dyadic resolution, e.g. 2^-8")
    run_p.add_argument("--n-max", type=int, dest="n_max")
    run_p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
    run_p.add_argument("--out")
    run_p.add_argument("--timings", action="store_true")
    run_p.add_argument("--emit-certificates", metavar="DIR",
                       help="write problem.json and certificate.json")
    list_p = exsub.add_parser("list", help="list reproductions")
    list_p.add_argument("--format", choices=("text", "json"), default="text")
    list_p.add_argument("--out")

    certify = sub.add_parser("certify", help="re-check a certificate file")
    certify.add_argument("problem")
    certify.add_argument("certificate")
    certify.add_argument("--out")

    space = sub.add_parser("space", help="inspect catalog spaces")
    spsub = space.add_subparsers(dest="subcommand")
    info_p = spsub.add_parser("info")
    info_p.add_argument("name", choices=catalog_names())
    info_p.add_argument("--epsilon", default="2^-6")
    info_p.add_argument("--format", choices=("text", "json"), default="text")
    info_p.add_argument("--out")
    sk_p = spsub.add_parser("sketch")
    sk_p.add_argument("name", choices=catalog_names())
    sk_p.add_argument("--epsilon", default="2^-6")
    sk_p.add_argument("--out")

    construct = sub.add_parser("construct", help="build derived spaces")
    construct.add_argument("op", choices=("cone", "product-interval",
                                          "product-ndagger", "opc"))
    construct.add_argument("base", choices=catalog_names())
    construct.add_argument("--epsilon", default="2^-5")
    construct.add_argument("--blocks", type=int, default=4)
    construct.add_argument("--out")
    return parser


_DISPATCH = {
    ("example", "run"): _cmd_example_run,
    ("example", "list"): _cmd_example_list,
    ("certify", None): _cmd_certify,
    ("space", "info"): _cmd_space_info,
    ("space", "sketch"): _cmd_space_sketch,
    ("construct", None): _cmd_construct,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap the latter
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    key = (args.command, getattr(args, "subcommand", None))
    handler = _DISPATCH.get(key)
    if handler is None:
        parser.print_usage(sys.stderr)
        return EXIT_INVALID
    try:
        return handler(args)
    except (UnknownName, InvalidArgument) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_INVALID
    except MemoryError:     # a backstop: sizes are refused before allocation
        sys.stderr.write("error: out of memory\n")
        return EXIT_INVALID
    except ExtenlabError as exc:
        sys.stderr.write(f"inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
