"""Named verification suites over generated corpora.

Each suite sweeps a corpus (exhaustive labeled trees, seeded random
samples, or small parameter grids) and compares a predicted closed form
against an independently computed value, reporting counts and the first
failure witness. All randomized corpora are driven by an explicit seed so
any reported failure is replayable.

A suite is a :class:`Suite` record in :data:`SUITES`: its corpus function
splits the cases into picklable chunks, and one runner checks the chunks
serially or over a process pool. A check returns its case's failure
witness, or None when the case passes; a graph in a witness input is a
document of ``serialize.graph_to_dict``, which ``load_graph`` and ``ecclab
ecc`` read back. The checks are module-level functions that reach the
library through this module's globals, so rebinding a name here (as a
tracer does) reaches them.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .eccentric import eccentric_girth, eccentric_graph
from .errors import InputError
from .families import complete, cycle, hypercube, path, star
from .graphs import Graph, apply_vertex_map, connected_components, girth
from .intmatrix import IntMatrix, determinant, determinant_oracle, kronecker_matrix
from .invertibility import check_invertibility_classification
from .products import (
    cartesian_product,
    check_additivity,
    check_componentwise_eccentric,
    check_kronecker_correspondence,
    cn_cn_isomorphism,
    cycle_product_structure,
    grid_eccentric_closed_form,
    kronecker_product_graph,
    predicted_tree_product_girth,
)
from .serialize import GraphDocument, graph_to_dict
from .trees import (
    ENUMERATION_MAX_VERTICES,
    Tree,
    _prufer_trees,
    check_monotone_exclusion,
    check_structure_theorem,
    predicted_tree_girth,
    random_tree,
)

RANDOM_TREE_MIN = 9
RANDOM_TREE_MAX = 40
CHUNK_SIZE = 25

# A chunk is a generator function and its arguments; a worker process
# re-derives the chunk's cases from them.
Chunk = tuple[Callable[..., Iterable], tuple]


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    corpus: str
    pass_count: int
    fail_count: int
    first_failure_witness: Optional[dict]
    wall_time: float
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        """No case failed, and at least one case was checked."""
        return self.fail_count == 0 and self.pass_count > 0


@dataclass(frozen=True)
class Suite:
    """``options`` maps each option the corpus takes to its default (a fixed
    corpus takes none); ``corpus(**options)`` returns a description of the
    cases and their chunks; ``check(case)`` returns its failure witness or None."""

    name: str
    options: dict[str, int]
    corpus: Callable[..., tuple[str, list[Chunk]]]
    check: Callable[[object], Optional[dict]]


def _witness(input_desc, expected, actual) -> dict:
    return {"input": input_desc, "expected": expected, "actual": actual}


def _document(g: Graph) -> dict:
    """A witness input graph, as ``save_graph`` writes it."""
    return graph_to_dict(GraphDocument(graph=g))


def _drawn(cases: list) -> list[Chunk]:
    """Chunks over cases already drawn in this process."""
    return [(iter, (cases[i:i + CHUNK_SIZE],)) for i in range(0, len(cases), CHUNK_SIZE)]


# ---------------------------------------------------------------------------
# Tree suites: exhaustive labeled trees with 2..trees_max_n vertices, one
# chunk per (n, first Prüfer symbol), plus seeded random trees, one chunk
# per contiguous range of sample indices.

def _random_trees(seed: int, start: int, count: int) -> Iterable[Tree]:
    for i in range(start, start + count):
        rng = random.Random(seed * 1_000_003 + i)
        n = rng.randint(RANDOM_TREE_MIN, RANDOM_TREE_MAX)
        yield random_tree(n, seed=rng.randrange(2**31))


def _tree_corpus(trees_max_n: int, samples: int, seed: int) -> tuple[str, list[Chunk]]:
    chunks: list[Chunk] = []
    for n in range(2, trees_max_n + 1):
        if n <= 3:
            chunks.append((_prufer_trees, (n, ())))
        else:
            chunks.extend((_prufer_trees, (n, (first,))) for first in range(n))
    for start in range(0, samples, CHUNK_SIZE):
        chunks.append((_random_trees, (seed, start, min(CHUNK_SIZE, samples - start))))
    corpus = (
        f"all labeled trees with 2..{trees_max_n} vertices plus {samples} random "
        f"trees with {RANDOM_TREE_MIN}..{RANDOM_TREE_MAX} vertices (seed {seed})"
    )
    return corpus, chunks


def _check_tree_girth(t: Tree) -> Optional[dict]:
    expected = predicted_tree_girth(t)
    actual = eccentric_girth(t.graph)
    if actual == expected and expected in (0, 3, 4):
        return None
    return _witness(_document(t.graph), expected, actual)


def _check_tree_structure(t: Tree) -> Optional[dict]:
    ok, edge = check_structure_theorem(t)
    if ok:
        return None
    return _witness(_document(t.graph), "union equals eccentric graph", f"edge {edge} differs")


def _check_tree_monotone(t: Tree) -> Optional[dict]:
    if check_monotone_exclusion(t):
        return None
    return _witness(_document(t.graph), "no increasing 2-path", "increasing 2-path found")


# ---------------------------------------------------------------------------
# Product suites. Random corpora are drawn here, in the calling process.

def _random_product_factors(rng: random.Random) -> list[Graph]:
    factors = []
    for _ in range(rng.randint(2, 3)):
        kind = rng.choice(("tree", "cycle", "complete"))
        if kind == "tree":
            factors.append(random_tree(rng.randint(2, 6), seed=rng.randrange(2**31)).graph)
        elif kind == "cycle":
            factors.append(cycle(rng.randint(3, 6)))
        else:
            factors.append(complete(rng.randint(2, 6)))
    return factors


def _factors_corpus(samples: int, seed: int) -> tuple[str, list[Chunk]]:
    rng = random.Random(seed)
    cases = [_random_product_factors(rng) for _ in range(samples)]
    corpus = f"{samples} seeded products of 2..3 factors on up to 6 vertices (seed {seed})"
    return corpus, _drawn(cases)


def _check_additivity(factors: list[Graph]) -> Optional[dict]:
    if check_additivity(factors):
        return None
    return _witness(list(map(_document, factors)), "additive distances", "mismatch")


def _check_componentwise(factors: list[Graph]) -> Optional[dict]:
    if check_componentwise_eccentric(factors):
        return None
    return _witness(list(map(_document, factors)), "componentwise equivalence", "mismatch")


def _random_tree_tuple(rng: random.Random) -> list[Tree]:
    while True:
        k = rng.randint(2, 3)
        sizes = [rng.randint(2, 12) for _ in range(k)]
        product_size = 1
        for s in sizes:
            product_size *= s
        if product_size <= 1000:
            return [random_tree(s, seed=rng.randrange(2**31)) for s in sizes]


def _tree_tuple_corpus(samples: int, seed: int) -> tuple[str, list[Chunk]]:
    p = lambda n: Tree(path(n))
    even_diam = Tree(path(3))  # diameter 2
    fixed = [
        [p(3), p(2)],
        [Tree(star(3)), p(2)],
        [p(8), p(6)],
        [even_diam, even_diam, even_diam],
    ]
    rng = random.Random(seed)
    cases = fixed + [_random_tree_tuple(rng) for _ in range(samples)]
    corpus = (
        f"4 fixed witnesses plus {samples} seeded tree tuples, k <= 3, "
        f"product <= 1000 vertices (seed {seed})"
    )
    return corpus, _drawn(cases)


def _check_product_girth(factor_trees: list[Tree]) -> Optional[dict]:
    expected = predicted_tree_product_girth(factor_trees)
    factors = [t.graph for t in factor_trees]
    actual = eccentric_girth(cartesian_product(factors)[0])
    if actual == expected:
        return None
    return _witness(list(map(_document, factors)), expected, actual)


def _grid_corpus() -> tuple[str, list[Chunk]]:
    cases = [(m, n) for m in range(3, 9) for n in range(3, 9)]
    return "grids P_m box P_n for 3 <= m, n <= 8", _drawn(cases)


def _check_grid(case: tuple[int, int]) -> Optional[dict]:
    m, n = case
    actual = eccentric_graph(cartesian_product([path(m), path(n)])[0])
    predicted = grid_eccentric_closed_form(m, n)
    expected_girth = predicted_tree_product_girth([Tree(path(m)), Tree(path(n))])
    if actual == predicted and girth(actual) == expected_girth:
        return None
    return _witness(
        {"m": m, "n": n},
        {"edges": len(predicted.edges), "girth": expected_girth},
        {"edges": len(actual.edges), "girth": girth(actual)},
    )


def _cycle_product_corpus() -> tuple[str, list[Chunk]]:
    cases = [(n, m) for n in range(3, 11) for m in range(3, 11)]
    return "cycle products C_n box C_m for 3 <= n, m <= 10", _drawn(cases)


def _check_cycle_product(case: tuple[int, int]) -> Optional[dict]:
    n, m = case
    report = cycle_product_structure(n, m)
    eg = eccentric_graph(cartesian_product([cycle(n), cycle(m)])[0])
    comps = connected_components(eg)
    expected = {
        "girth": report.predicted_girth,
        "num_components": report.num_components,
        "component_sizes": [report.component_length],
        "num_edges": report.num_edges,
    }
    actual = {
        "girth": girth(eg),
        "num_components": len(comps),
        "component_sizes": sorted({len(c) for c in comps}),
        "num_edges": eg.num_edges,
    }
    if actual == expected:
        return None
    return _witness({"n": n, "m": m}, expected, actual)


def _cncn_corpus() -> tuple[str, list[Chunk]]:
    return "C_n box C_n vs C_n x C_n for n in {3, 5, 7, 9}", _drawn([3, 5, 7, 9])


def _check_cncn_iso(n: int) -> Optional[dict]:
    perm = cn_cn_isomorphism(n)
    box, _ = cartesian_product([cycle(n), cycle(n)])
    tensor = kronecker_product_graph(cycle(n), cycle(n))
    # Labeled equality of the relabeled box product and the tensor
    # product checks edge preservation in both directions at once.
    if apply_vertex_map(box, perm) == tensor:
        return None
    return _witness({"n": n}, "isomorphic via closed-form map", "edge mismatch")


def _self_centered_corpus() -> tuple[str, list[Chunk]]:
    pool: list[Graph] = [cycle(n) for n in range(3, 9)]
    pool += [complete(n) for n in range(2, 6)]
    pool += [hypercube(k) for k in range(1, 6)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations_with_replacement(pool, 2)
        if a.num_vertices * b.num_vertices <= 64 * 64
    ]
    corpus = f"{len(pairs)} self-centered pairs (cycles, complete graphs, hypercubes)"
    return corpus, _drawn(pairs)


def _check_kronecker_correspondence(pair: tuple[Graph, Graph]) -> Optional[dict]:
    if check_kronecker_correspondence(*pair):
        return None
    return _witness(list(map(_document, pair)), "identity-map edge equality", "mismatch")


def _random_matrix(rng: random.Random, n: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def _matrix_corpus(samples: int, seed: int) -> tuple[str, list[Chunk]]:
    """One-matrix cases compare Bareiss with permutation expansion; two-matrix
    cases check det(A (x) B) = det(A)^p det(B)^n."""
    rng = random.Random(seed)
    cases = [(_random_matrix(rng, rng.randint(1, 6), 9),) for _ in range(samples)]
    pairs = max(samples // 5, 1)
    for _ in range(pairs):
        n = rng.randint(1, 4)
        p = rng.randint(1, 4)
        cases.append((_random_matrix(rng, n, 5), _random_matrix(rng, p, 5)))
    corpus = (
        f"{samples} random matrices up to 6x6 (Bareiss vs permutation expansion) "
        f"plus {pairs} Kronecker determinant pairs (seed {seed})"
    )
    return corpus, _drawn(cases)


def _check_determinant(case: tuple[IntMatrix, ...]) -> Optional[dict]:
    if len(case) == 1:
        (m,) = case
        actual, expected = determinant(m), determinant_oracle(m)
        input_desc = [list(r) for r in m.entries]
    else:
        a, b = case
        actual = determinant(kronecker_matrix(a, b))
        expected = determinant(a) ** b.rows * determinant(b) ** a.rows
        input_desc = {"a": [list(r) for r in a.entries], "b": [list(r) for r in b.entries]}
    if actual == expected:
        return None
    return _witness(input_desc, expected, actual)


def _invertibility_corpus(samples: int, seed: int) -> tuple[str, list[Chunk]]:
    rng = random.Random(seed)
    cases: list[list[Tree]] = [
        [Tree(path(3)), Tree(path(3))],
        [Tree(path(5)), Tree(path(2))],
        [Tree(star(3)), Tree(path(3))],
    ]
    for _ in range(samples):
        t1 = random_tree(rng.randint(2, 7), seed=rng.randrange(2**31))
        j = rng.randint(0, 2)
        cases.append([t1] + [Tree(path(2))] * j)
    corpus = (
        f"3 fixed negative cases plus {samples} seeded tuples (T_1, P_2^j) with "
        f"2 <= n <= 7, j in 0..2 (seed {seed})"
    )
    return corpus, _drawn(cases)


def _check_invertibility(factor_trees: list[Tree]) -> Optional[dict]:
    result = check_invertibility_classification(factor_trees)
    if result.agree:
        return None
    return _witness(
        [_document(t.graph) for t in factor_trees],
        {"predicted_invertible": result.predicted},
        {"det": result.det},
    )


# ---------------------------------------------------------------------------

_TREE_OPTIONS = {"trees_max_n": ENUMERATION_MAX_VERTICES, "samples": 1000, "seed": 0}

SUITES: dict[str, Suite] = {
    s.name: s
    for s in (
        Suite("tree-girth", _TREE_OPTIONS, _tree_corpus, _check_tree_girth),
        Suite("structure", _TREE_OPTIONS, _tree_corpus, _check_tree_structure),
        Suite("monotone", _TREE_OPTIONS, _tree_corpus, _check_tree_monotone),
        Suite("additivity", {"samples": 200, "seed": 0}, _factors_corpus, _check_additivity),
        Suite("componentwise", {"samples": 200, "seed": 0}, _factors_corpus,
              _check_componentwise),
        Suite("product-girth", {"samples": 300, "seed": 0}, _tree_tuple_corpus,
              _check_product_girth),
        Suite("grid", {}, _grid_corpus, _check_grid),
        Suite("cycle-product", {}, _cycle_product_corpus, _check_cycle_product),
        Suite("cncn-iso", {}, _cncn_corpus, _check_cncn_iso),
        Suite("kronecker-correspondence", {}, _self_centered_corpus,
              _check_kronecker_correspondence),
        Suite("kronecker-det", {"samples": 500, "seed": 0}, _matrix_corpus, _check_determinant),
        Suite("invertibility", {"samples": 500, "seed": 0}, _invertibility_corpus,
              _check_invertibility),
    )
}

SUITE_NAMES = tuple(SUITES)


def _run_chunk(check: Callable, chunk: Chunk) -> tuple[int, int, Optional[dict]]:
    """Pass and fail counts of one chunk, with its first failure witness; a
    case passes when its check returns None."""
    cases, args = chunk
    passed = failed = 0
    witness = None
    for case in cases(*args):
        w = check(case)
        if w is None:
            passed += 1
        else:
            failed += 1
            if witness is None:
                witness = w
    return passed, failed, witness


def run_suite(
    name: str,
    trees_max_n: Optional[int] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
) -> CheckReport:
    """Check every case of a suite's corpus. An option left as None takes
    the suite's default; an option the suite's corpus does not take raises
    InputError, so a fixed-corpus suite takes none and reports no seed.
    With ``jobs > 1`` the chunks go to that many spawned worker processes,
    which re-import the calling script: a script that calls this needs an
    ``if __name__ == "__main__"`` guard."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    given = dict(trees_max_n=trees_max_n, samples=samples, seed=seed)
    given = {k: v for k, v in given.items() if v is not None}
    unused = [k for k in given if k not in suite.options]
    if unused:
        raise InputError(f"suite {name!r} takes no {', '.join(unused)}")
    if trees_max_n is not None and not 2 <= trees_max_n <= ENUMERATION_MAX_VERTICES:
        raise InputError(
            f"trees_max_n must be in 2..{ENUMERATION_MAX_VERTICES}, got {trees_max_n}"
        )
    if samples is not None and samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    options = {**suite.options, **given}
    start = time.perf_counter()
    corpus, chunks = suite.corpus(**options)
    checks = itertools.repeat(suite.check)
    if jobs > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            results = list(pool.map(_run_chunk, checks, chunks))
    else:
        results = list(map(_run_chunk, checks, chunks))
    return CheckReport(
        check_name=name,
        corpus=corpus,
        pass_count=sum(r[0] for r in results),
        fail_count=sum(r[1] for r in results),
        first_failure_witness=next((r[2] for r in results if r[2] is not None), None),
        wall_time=time.perf_counter() - start,
        seed=options.get("seed"),
    )
