"""Command-line interface.

Exit codes: 0 success (or all checks passed), 1 a verification suite
reported failures or checked no case, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional, Sequence

from .eccentric import eccentric_graph, eccentricity_determinant, eccentricity_rows
from .errors import EcclabError, InputError
from .families import FAMILIES, FamilySpec, build_family
from .graphs import check_matrix_side
from .products import cartesian_product, kronecker_product_graph
from .serialize import (
    GraphDocument,
    graph_to_dot,
    graph_to_json,
    load_graph,
    matrix_to_json,
)
from .suites import SUITE_NAMES, run_suite
from .trees import ENUMERATION_MAX_VERTICES, random_tree

GEN_FAMILIES = (*FAMILIES, "random-tree")


def _write_output(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "random-tree":
        if len(args.params) != 1:
            raise InputError("random-tree takes exactly one parameter (vertex count)")
        (n,) = args.params
        seed = 0 if args.seed is None else args.seed
        t = random_tree(n, seed=seed)
        doc = GraphDocument(graph=t.graph, name=f"random-tree({n}, seed={seed})")
    elif args.seed is not None:
        raise InputError(f"family {args.family!r} takes no seed; only random-tree does")
    else:
        spec = FamilySpec(family=args.family, params=tuple(args.params))
        doc = GraphDocument(graph=build_family(spec), name=spec.name)
    _write_output(graph_to_json(doc), args.output)
    return 0


def cmd_ecc(args: argparse.Namespace) -> int:
    if args.matrix and args.format == "dot":
        raise InputError("--matrix writes JSON only, not --format dot")
    doc = load_graph(args.input)
    # One side cap for both forms, before the kernel. At the cap, ecc peaked
    # at 52 MB of RSS on P_4096 and 55 MB on C_4096, whose descent reads a
    # table of 21 lists of balls, and at 45 MB on Q_12, whose single steps
    # keep 7 of them until every ball fills at radius 12 (2-vCPU VM, Python
    # 3.11). A sparse G can have a dense E(G), so both forms also count
    # E(G)'s edges from its bitsets and refuse more than EDGE_CAP before
    # building any: unrefused, the 8,386,560 of E(S_4095) took 15.5 s and
    # 2.55 GB.
    check_matrix_side(doc.graph.num_vertices)
    if args.matrix:
        rows = eccentricity_rows(doc.graph)
        _write_output(matrix_to_json(rows, doc.graph.num_vertices), args.output)
        return 0
    eg = eccentric_graph(doc.graph)
    out_doc = GraphDocument(graph=eg, name=doc.name, labels=doc.labels)
    render = graph_to_dot if args.format == "dot" else graph_to_json
    _write_output(render(out_doc), args.output)
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    docs = [load_graph(p) for p in args.inputs]
    graphs = [d.graph for d in docs]
    if args.kind == "cartesian":
        product, _ = cartesian_product(graphs)
    else:
        if len(graphs) != 2:
            raise InputError("kronecker products take exactly two inputs")
        product = kronecker_product_graph(graphs[0], graphs[1])
    name = f"{args.kind} product, row-major factor sizes {[g.num_vertices for g in graphs]}"
    _write_output(graph_to_json(GraphDocument(graph=product, name=name)), args.output)
    return 0


def cmd_det(args: argparse.Namespace) -> int:
    doc = load_graph(args.input)
    check_matrix_side(doc.graph.num_vertices)
    # Each block of ε(G) is filled from E(G), with no n x n table. At the
    # cap, det took 0.32 s and 59 MB of RSS on P_4096, whose one block has a
    # B of side 2,048, and 0.34 s and 54 MB on C_4096, whose 2,048 blocks
    # have side 2; a dense table took 2.0 s and 274 MB, and 1.5 s and
    # 187 MB (2-vCPU VM, Python 3.11).
    det = eccentricity_determinant(doc.graph)
    # A determinant can have more digits than the 4,300 that Python
    # (3.11, and 3.10.7 on) converts to a string by default: det ε(C_1600)
    # = 800^1600 has 4,645.
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        text = str(det)
    else:
        old = limit()
        sys.set_int_max_str_digits(0)
        try:
            text = str(det)
        finally:
            sys.set_int_max_str_digits(old)
    sys.stdout.write(text + "\n")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite,
        trees_max_n=args.trees_max_n,
        samples=args.samples,
        seed=args.seed,
        jobs=args.jobs,
    )
    status = "PASS" if report.passed else "FAIL"
    seed = "" if report.seed is None else f" (seed {report.seed})"
    print(f"{status} {report.check_name}: {report.pass_count} passed, "
          f"{report.fail_count} failed in {report.wall_time:.2f}s{seed}")
    print(f"  corpus: {report.corpus}")
    if report.first_failure_witness is not None:
        print(f"  first failure: {json.dumps(report.first_failure_witness)}")
    report_path = args.report or f"{args.suite}-report.json"
    with open(report_path, "w") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2)
        fh.write("\n")
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` reuses it for every call."""
    parser = argparse.ArgumentParser(
        prog="ecclab",
        description="Eccentric graphs, eccentricity matrices, and product structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a named family graph as JSON")
    p_gen.add_argument("family", choices=GEN_FAMILIES)
    p_gen.add_argument("params", type=int, nargs="*")
    p_gen.add_argument("--seed", type=int, help="seed of random-tree (default 0)")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_ecc = sub.add_parser("ecc", help="eccentric graph or eccentricity matrix of a graph")
    p_ecc.add_argument("input")
    p_ecc.add_argument("--matrix", action="store_true")
    p_ecc.add_argument("--format", choices=("json", "dot"), default="json")
    p_ecc.add_argument("-o", "--output")
    p_ecc.set_defaults(func=cmd_ecc)

    p_prod = sub.add_parser("product", help="Cartesian or Kronecker product of graphs")
    p_prod.add_argument("inputs", nargs="+")
    p_prod.add_argument("--kind", choices=("cartesian", "kronecker"), default="cartesian")
    p_prod.add_argument("-o", "--output")
    p_prod.set_defaults(func=cmd_product)

    p_det = sub.add_parser("det", help="exact determinant of the eccentricity matrix")
    p_det.add_argument("input")
    p_det.set_defaults(func=cmd_det)

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.add_argument(
        "--trees-max-n",
        type=int,
        help=f"largest labeled tree of a tree suite (default {ENUMERATION_MAX_VERTICES})",
    )
    p_check.add_argument("--samples", type=int, default=None)
    p_check.add_argument("--seed", type=int, help="corpus seed of a seeded suite (default 0)")
    p_check.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p_check.add_argument("--report", help="path for the JSON report")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EcclabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
