"""The suite engine: pinned reports, first witnesses, jobs, argument checks."""

import dataclasses
import hashlib
import importlib
import inspect
from pathlib import Path

import pytest

import ecclab.suites as suites
from ecclab.errors import InputError
from ecclab.suites import SUITE_NAMES, run_suite

ROOT = Path(__file__).resolve().parents[1]

TREES = dict(trees_max_n=5, samples=10, seed=3)
TREES_CORPUS = (
    "all labeled trees with 2..5 vertices plus 10 random trees with 9..40 vertices (seed 3)"
)
FACTORS_CORPUS = "5 seeded products of 2..3 factors on up to 6 vertices (seed 1)"

# Per suite: run_suite arguments, pass_count, fail_count and corpus, as the
# per-suite loops that the registry replaced reported them; then the
# functions in ecclab.suites that receive each case, and a digest of the
# cases they received, in order.
PINNED = {
    "tree-girth": (TREES, 155, 0, TREES_CORPUS, ("predicted_tree_girth",), "c3281e51eccefac1"),
    "structure": (TREES, 155, 0, TREES_CORPUS, ("check_structure_theorem",), "aba3033a3e02161e"),
    "monotone": (TREES, 155, 0, TREES_CORPUS, ("check_monotone_exclusion",), "91e352336c79c0fc"),
    "additivity": (
        dict(samples=5, seed=1), 5, 0, FACTORS_CORPUS,
        ("check_additivity",), "c8571c6db2c8a43d",
    ),
    "componentwise": (
        dict(samples=5, seed=1), 5, 0, FACTORS_CORPUS,
        ("check_componentwise_eccentric",), "155fe581e64d448d",
    ),
    "product-girth": (
        dict(samples=3, seed=2), 7, 0,
        "4 fixed witnesses plus 3 seeded tree tuples, k <= 3, product <= 1000 vertices (seed 2)",
        ("predicted_tree_product_girth",), "b24eb3ccf5f19c5c",
    ),
    "grid": (
        {}, 36, 0, "grids P_m box P_n for 3 <= m, n <= 8",
        ("grid_eccentric_closed_form",), "dcfa7413fdbce65d",
    ),
    "cycle-product": (
        {}, 64, 0, "cycle products C_n box C_m for 3 <= n, m <= 10",
        ("cycle_product_structure",), "28974d3948b32c1e",
    ),
    "cncn-iso": (
        {}, 4, 0, "C_n box C_n vs C_n x C_n for n in {3, 5, 7, 9}",
        ("cn_cn_isomorphism",), "26490c32a1962343",
    ),
    "kronecker-correspondence": (
        {}, 120, 0, "120 self-centered pairs (cycles, complete graphs, hypercubes)",
        ("check_kronecker_correspondence",), "1c843ef45e8b955f",
    ),
    "kronecker-det": (
        dict(samples=20, seed=1), 24, 0,
        "20 random matrices up to 6x6 (Bareiss vs permutation expansion) "
        "plus 4 Kronecker determinant pairs (seed 1)",
        ("determinant_oracle", "kronecker_matrix"), "f91055726e68a981",
    ),
    "invertibility": (
        dict(samples=10, seed=1), 13, 0,
        "3 fixed negative cases plus 10 seeded tuples (T_1, P_2^j) with "
        "2 <= n <= 7, j in 0..2 (seed 1)",
        ("check_invertibility_classification",), "560655ad370c2889",
    ),
}


def test_every_suite_is_pinned():
    assert tuple(PINNED) == SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_pinned_report(name, monkeypatch):
    kwargs, pass_count, fail_count, corpus, receivers, digest = PINNED[name]
    received = []

    def recorder(receiver, fn):
        def record(*args):
            received.append((receiver, args))
            return fn(*args)
        return record

    for receiver in receivers:
        monkeypatch.setattr(suites, receiver, recorder(receiver, getattr(suites, receiver)))
    r = run_suite(name, **kwargs)
    assert (r.check_name, r.pass_count, r.fail_count, r.corpus) == (
        name, pass_count, fail_count, corpus,
    )
    assert r.seed == kwargs.get("seed")
    assert r.first_failure_witness is None and r.passed
    assert len(received) == pass_count + fail_count
    assert hashlib.sha256(repr(received).encode()).hexdigest()[:16] == digest


def test_first_failure_witness_tree_suite(monkeypatch):
    monkeypatch.setattr(suites, "predicted_tree_girth", lambda t: 4)
    r = run_suite("tree-girth", trees_max_n=4, samples=0)
    assert (r.pass_count, r.fail_count) == (0, 20)
    assert r.first_failure_witness == {
        "input": {"num_vertices": 2, "edges": [[0, 1]]}, "expected": 4, "actual": 0,
    }
    assert not r.passed


def test_first_failure_witness_product_suite(monkeypatch):
    monkeypatch.setattr(suites, "determinant_oracle", lambda m: 7)
    r = run_suite("kronecker-det", samples=20, seed=1)
    assert (r.pass_count, r.fail_count) == (4, 20)
    assert r.first_failure_witness == {
        "input": [[9, -7], [-1, -6]], "expected": 7, "actual": -61,
    }


def test_grid_takes_its_girth_from_the_tree_product_rule(monkeypatch):
    monkeypatch.setattr(suites, "predicted_tree_product_girth", lambda trees: 6)
    r = run_suite("grid")
    assert (r.pass_count, r.fail_count) == (0, 36)
    assert r.first_failure_witness["expected"]["girth"] == 6


def test_cycle_product_checks_odd_by_odd_components(monkeypatch):
    real = suites.cycle_product_structure

    def wrong_on_odd_pairs(n, m):
        r = real(n, m)
        if n % 2 and m % 2:
            r = dataclasses.replace(r, num_components=r.num_components + 1)
        return r

    monkeypatch.setattr(suites, "cycle_product_structure", wrong_on_odd_pairs)
    r = run_suite("cycle-product")
    assert (r.pass_count, r.fail_count) == (48, 16)
    assert r.first_failure_witness["input"] == {"n": 3, "m": 3}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_options_are_the_corpus_parameters(name):
    suite = suites.SUITES[name]
    assert set(suite.options) == set(inspect.signature(suite.corpus).parameters)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("structure", dict(trees_max_n=6, samples=60, seed=5)),
        ("product-girth", dict(samples=40, seed=2)),
    ],
)
def test_jobs_do_not_change_the_report(name, kwargs):
    serial = run_suite(name, jobs=1, **kwargs)
    parallel = run_suite(name, jobs=2, **kwargs)
    assert dataclasses.replace(parallel, wall_time=0) == dataclasses.replace(
        serial, wall_time=0
    )


def test_tree_suite_without_samples_checks_the_labeled_trees():
    r = run_suite("monotone", trees_max_n=4, samples=0)
    assert (r.pass_count, r.fail_count) == (1 + 3 + 16, 0)
    assert r.passed


def test_empty_corpus_does_not_pass():
    r = run_suite("additivity", samples=0)
    assert (r.pass_count, r.fail_count) == (0, 0)
    assert not r.passed


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("no-such-suite", {}),
        ("additivity", dict(samples=-3)),
        ("grid", dict(jobs=0)),
        ("monotone", dict(trees_max_n=1)),
        ("monotone", dict(trees_max_n=9)),
        ("grid", dict(trees_max_n=99)),
        ("additivity", dict(trees_max_n=1)),
        ("grid", dict(samples=5)),
        ("kronecker-correspondence", dict(samples=0)),
        ("grid", dict(seed=5)),
        ("cncn-iso", dict(seed=0)),
        ("additivity", dict(trees_max_n=5)),
    ],
)
def test_bad_arguments_raise(name, kwargs):
    with pytest.raises(InputError):
        run_suite(name, **kwargs)


def test_traced_benchmark_names_resolve(monkeypatch):
    """Every function the benchmark's traced run wraps is still there."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    for module, names in tracing.TRACED.items():
        m = importlib.import_module(f"ecclab.{module}")
        for name in names:
            assert callable(getattr(m, name, None)), f"ecclab.{module}.{name}"
    assert set(tracing.SUITES) <= set(SUITE_NAMES)
