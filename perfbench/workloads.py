"""The three benchmark workloads.

Set-up builds a workload's inputs from the seed and returns ``round_calls``:
``round_calls(r)`` gives the timed calls of round ``r`` into ecclab's public
entry points. Every round of a run makes the same calls on the same inputs,
so that every round measures the same work; only the order of the graph
queries changes from round to round. A call states how
many cases it covers and checks its own result outside the timed region.

ecclab modules are looked up when set-up runs, never at import, because
``src/`` is put on the import path only when a run starts; calls go through
module attributes so that the traced run can rebind them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], object]
    cases: int
    check: Callable[[object], int]  # failed cases, at most ``cases``
    suite: Optional[str] = None  # set when ``run`` returns a suite CheckReport
    output_bytes: Optional[Callable[[object], int]] = None


def suite_call(name: str, expected: int, label: Optional[str] = None, **kwargs) -> Call:
    """One ``run_suite`` call with jobs=1. It passes only when the suite
    checked exactly ``expected`` cases and none failed."""
    suites = import_module("ecclab.suites")

    def check(report) -> int:
        if report.pass_count + report.fail_count != expected:
            return expected
        return report.fail_count

    return Call(
        label=label or name,
        run=lambda: suites.run_suite(name, jobs=1, **kwargs),
        cases=expected,
        check=check,
        suite=name,
    )


# ---------------------------------------------------------------------------
# tree-sweep

TREE_MAX_N = 6
LABELLED_TREES = sum(n ** (n - 2) for n in range(2, TREE_MAX_N + 1))
# The random trees of a suite come in several calls, not one, so that the
# latency percentiles rank more than six calls.
SAMPLE_CALLS = 6
SAMPLES_PER_CALL = 50


def tree_sweep(seed: int, workdir: Path) -> Callable[[int], list[Call]]:
    """Many tiny trees through the tree-girth, structure and monotone suites,
    so per-call overhead in graphs, trees and suites dominates."""
    calls = []
    for name in ("tree-girth", "structure", "monotone"):
        calls.append(suite_call(name, LABELLED_TREES, label=f"{name} n<={TREE_MAX_N}",
                                trees_max_n=TREE_MAX_N, samples=0, seed=seed))
        # A suite checks at least the labelled trees on 2 vertices (there is
        # one), so each of these calls has one case more than its samples.
        calls.extend(
            suite_call(name, 1 + SAMPLES_PER_CALL, label=f"{name} random {k}", trees_max_n=2,
                       samples=SAMPLES_PER_CALL, seed=seed * SAMPLE_CALLS + k)
            for k in range(SAMPLE_CALLS)
        )
    return lambda r: calls


# ---------------------------------------------------------------------------
# product-sweep
#
# The random product corpora here are drawn at fixed suite seeds, not from
# the benchmark seed. A product's cost grows with the square of its size, so
# the cost of a few dozen random products varies from seed to seed by more
# than the benchmark's bounds; the seed changes only the determinant calls.

PRODUCT_GIRTH_SAMPLES = 8  # per call; three calls per round
PAIRWISE_SAMPLES = 40
KRONECKER_PAIRS = 120
GRID_CASES = 36
CYCLE_PRODUCT_CASES = 64


def product_sweep(seed: int, workdir: Path) -> Callable[[int], list[Call]]:
    """Few large Cartesian products through six product suites, so
    all-pairs BFS on graphs of up to 1,024 vertices dominates; then exact
    determinants of product eccentricity matrices."""
    calls = [
        suite_call("product-girth", 4 + PRODUCT_GIRTH_SAMPLES, label=f"product-girth {s}",
                   samples=PRODUCT_GIRTH_SAMPLES, seed=s)
        for s in (1, 2, 3)
    ] + [
        suite_call("kronecker-correspondence", KRONECKER_PAIRS),
        suite_call("additivity", PAIRWISE_SAMPLES, samples=PAIRWISE_SAMPLES, seed=1),
        suite_call("componentwise", PAIRWISE_SAMPLES, samples=PAIRWISE_SAMPLES, seed=1),
        suite_call("grid", GRID_CASES),
        suite_call("cycle-product", CYCLE_PRODUCT_CASES),
    ] + determinant_calls(seed)
    return lambda r: calls


# ---------------------------------------------------------------------------
# Determinants of product eccentricity matrices, part of product-sweep. A
# workload of their own would bypass the distance layer, but on a shared host
# four workloads leave too little time per run for steady figures.

INVERTIBILITY_SAMPLES = 200
KRONECKER_DET_SAMPLES = 200
LADDER_RUNGS = range(20, 33, 2)  # T on n vertices gives matrix side 4n: 80..128
PROBES = ((7, 3), (15, 3), (31, 3))  # S_n box P_2^3: sides 64, 128, 256


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree under a random labelling."""
    label = list(range(n))
    rng.shuffle(label)
    return [(label[v], label[rng.randrange(v)]) for v in range(1, n)]


def determinant_calls(seed: int) -> list[Call]:
    """Exact determinants of eccentricity matrices of side 64 to 256; the
    distance layer only builds the matrices."""
    invertibility = import_module("ecclab.invertibility")
    families = import_module("ecclab.families")
    graphs = import_module("ecclab.graphs")
    trees = import_module("ecclab.trees")
    p2 = trees.Tree(families.path(2))

    def classify(label: str, tree, invertible: bool) -> Call:
        # (T, P_2, P_2) is invertible exactly when T is a star (T has at
        # least 20 vertices here, so it is never P_4).
        def check(result) -> int:
            return 0 if result.agree and result.computed == invertible else 1

        return Call(
            label=label,
            run=lambda: invertibility.check_invertibility_classification([tree, p2, p2]),
            cases=1,
            check=check,
        )

    def probe(n_leaves: int, num_p2: int) -> Call:
        return Call(
            label=f"probe S_{n_leaves} x P_2^{num_p2}",
            run=lambda: invertibility.star_product_determinant_probe(n_leaves, num_p2),
            cases=1,
            check=lambda result: 0 if result.matches else 1,
        )

    rng = random.Random(seed)
    calls = [
        suite_call("invertibility", 3 + INVERTIBILITY_SAMPLES,
                   samples=INVERTIBILITY_SAMPLES, seed=seed),
        suite_call("kronecker-det", KRONECKER_DET_SAMPLES + KRONECKER_DET_SAMPLES // 5,
                   samples=KRONECKER_DET_SAMPLES, seed=seed),
    ]
    for n in LADDER_RUNGS:
        edges = random_tree_edges(rng, n)
        tree = trees.Tree(graphs.build_graph(n, edges))
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        calls.append(classify(f"classify random T_{n}", tree, max(degrees) == n - 1))
        calls.append(classify(f"classify S_{n - 1}", trees.Tree(families.star(n - 1)), True))
    calls.extend(probe(n, j) for n, j in PROBES)
    return calls


# ---------------------------------------------------------------------------
# graph-queries


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def product(factors: list[tuple[int, list]]) -> tuple[int, list[tuple[int, int]]]:
    """Cartesian product, row-major with the first factor most significant
    (ecclab's ProductIndexMap convention)."""
    n, edges = factors[0]
    for m, f_edges in factors[1:]:
        edges = [(a * m + b, c * m + b) for a, c in edges for b in range(m)] + [
            (a * m + b, a * m + c) for a in range(n) for b, c in f_edges
        ]
        n *= m
    return n, edges


def reference_distances(n: int, edges) -> list[list[int]]:
    """Plain BFS from every vertex; independent of ecclab's distance code."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    rows = []
    for source in range(n):
        dist = [-1] * n
        dist[source] = 0
        queue = [source]
        for u in queue:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def reference_matrix(n: int, edges) -> list[list[int]]:
    """Eccentricity matrix from its definition: d(u,v) where it equals
    min(e(u), e(v)), else 0."""
    dist = reference_distances(n, edges)
    ecc = [max(row) for row in dist]
    return [
        [d if d == min(ecc[u], ecc[v]) else 0 for v, d in enumerate(dist[u])]
        for u in range(n)
    ]


def stratified(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread log-uniformly over [lo, hi]. They do not depend
    on the seed, so the latency tail, set by the few largest graphs, does not
    either; the seed picks the trees, grid shapes and factors."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]


@dataclass(frozen=True)
class Query:
    family: str  # path, cycle, tree, grid, hypercube, tree-x-cycle, star-product
    params: tuple[int, ...]
    command: str  # ecc, matrix or det
    num_vertices: int
    edges: list


def query_pool(rng: random.Random) -> list[Query]:
    """500 single-graph queries with heavy-tailed sizes up to 300 vertices;
    ``det`` only on matrices of side 64 or less."""
    pool = []

    def add(family, params, command, graph):
        pool.append(Query(family, params, command, graph[0], graph[1]))

    for i, n in enumerate(stratified(75, 8, 300)):
        add("path", (n,), ("ecc", "matrix")[i % 2], (n, path_edges(n)))
    for i, n in enumerate(stratified(75, 8, 300)):
        add("cycle", (n,), ("matrix", "ecc")[i % 2], (n, cycle_edges(n)))
    for n in stratified(130, 8, 300):
        add("tree", (n,), "ecc", (n, random_tree_edges(rng, n)))
    for i, target in enumerate(stratified(65, 9, 289)):
        m = rng.randint(3, min(17, target // 3))
        n = max(3, min(17, round(target / m)))
        add("grid", (m, n), ("ecc", "matrix")[i % 2],
            product([(m, path_edges(m)), (n, path_edges(n))]))
    for i in range(30):
        k = 3 + i % 6
        add("hypercube", (k,), ("ecc", "matrix")[i // 6 % 2],
            product([(2, path_edges(2))] * k))
    for i, t in enumerate(stratified(65, 4, 20)):
        c = rng.randint(3, min(15, 300 // t))
        add("tree-x-cycle", (t, c), ("matrix", "ecc")[i % 2],
            product([(t, random_tree_edges(rng, t)), (c, cycle_edges(c))]))
    for side in stratified(60, 8, 64):
        j = rng.randint(0, 3)
        leaves = max(2, side // 2**j - 1)
        star = (leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        add("star-product", (leaves, j), "det", product([star] + [(2, path_edges(2))] * j))
    return pool


def graph_queries(seed: int, workdir: Path) -> Callable[[int], list[Call]]:
    """A stream of single-graph CLI queries repeated each round, the only
    workload that measures cli, serialize and per-query latency."""
    cli = import_module("ecclab.cli")
    families = import_module("ecclab.families")
    graphs = import_module("ecclab.graphs")
    invertibility = import_module("ecclab.invertibility")
    products = import_module("ecclab.products")
    trees = import_module("ecclab.trees")

    rng = random.Random(seed)
    pool = query_pool(rng)
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, q in enumerate(pool):
        path = workdir / f"q{i:04d}.json"
        name = f"{q.family}{list(q.params)}"
        doc = {"num_vertices": q.num_vertices, "edges": [list(e) for e in q.edges], "name": name}
        path.write_text(json.dumps(doc))
        argv = {"ecc": ["ecc", str(path)], "matrix": ["ecc", str(path), "--matrix"],
                "det": ["det", str(path)]}[q.command]
        argvs.append(argv)

    probes: dict[tuple[int, int], object] = {}

    def expected_ok(q: Query, text: str) -> bool:
        """Compare one output with a form that does not share ecclab's
        eccentric-graph code path."""
        if q.command == "det":
            if q.params not in probes:
                probes[q.params] = invertibility.star_product_determinant_probe(*q.params)
            probe = probes[q.params]
            return probe.matches and int(text) == probe.computed_det
        if q.command == "matrix":
            entries = json.loads(text)["entries"]
            expected = reference_matrix(q.num_vertices, q.edges)
            return entries == [[str(x) for x in row] for row in expected]
        actual = {(u, v) for u, v in json.loads(text)["edges"]}
        if q.family in ("path", "cycle"):
            spec = families.FamilySpec(q.family, q.params)
            return actual == set(families.expected_eccentric(spec).edges)
        if q.family == "grid":
            return actual == set(products.grid_eccentric_closed_form(*q.params).edges)
        if q.family == "tree":
            tree = trees.Tree(graphs.build_graph(q.num_vertices, q.edges))
            returned = graphs.build_graph(q.num_vertices, actual)
            return graphs.girth(returned) == trees.predicted_tree_girth(tree)
        matrix = reference_matrix(q.num_vertices, q.edges)
        n = q.num_vertices
        return actual == {(u, v) for u in range(n) for v in range(u + 1, n) if matrix[u][v]}

    verified: dict[int, bytes] = {}

    def query_call(i: int) -> Call:
        q = pool[i]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = cli.main(argvs[i])
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()

        def check(result) -> int:
            code, text = result
            if code != 0:
                return 1
            # An output byte-identical to one already verified for this
            # query is correct; anything else is verified in full.
            digest = hashlib.blake2b(text.encode()).digest()
            if verified.get(i) == digest:
                return 0
            if not expected_ok(q, text):
                return 1
            verified[i] = digest
            return 0

        return Call(
            label=f"q{i:04d} " + " ".join(argvs[i][:1] + argvs[i][2:]) + f" {q.family}{list(q.params)}",
            run=run,
            cases=1,
            check=check,
            output_bytes=lambda result: len(result[1]),
        )

    calls = [query_call(i) for i in range(len(pool))]

    def round_calls(r: int) -> list[Call]:
        order = list(calls)
        random.Random(f"{seed}:{r}").shuffle(order)
        return order

    return round_calls


WORKLOADS = {
    "tree-sweep": tree_sweep,
    "product-sweep": product_sweep,
    "graph-queries": graph_queries,
}
