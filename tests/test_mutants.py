"""Seeded faults that each suite's default corpus must catch.

Each fault is one monkeypatch of the prediction that its suite reaches: a
suite that passes a wrong prediction checks nothing for the cases that the
fault changes. At default options each fault must make its suite fail on
exactly the cases it changes, and the first failure witness must rebuild
into an input that fails the suite's check under the fault and passes it
without.
"""

import pytest

from ecclab import invertibility, suites
from ecclab.graphs import build_graph
from ecclab.trees import Tree, is_p2, is_p4


def girth_class_predicted_as_4(cls):
    """product-girth: the class ``cls`` of the 0/3/4/6 table predicted as 4."""
    predict = suites.predicted_tree_product_girth

    def faulty(factor_trees):
        girth = predict(factor_trees)
        return 4 if girth == cls else girth

    return suites, "predicted_tree_product_girth", faulty


def p4_times_p2_powers_called_singular():
    """invertibility: P_4 box P_2^j predicted singular for every j >= 2."""
    predict = invertibility.predicted_invertible

    def faulty(factor_trees):
        if len(factor_trees) >= 3 and any(map(is_p4, factor_trees)):
            if sum(map(is_p2, factor_trees)) == len(factor_trees) - 1:
                return False
        return predict(factor_trees)

    return invertibility, "predicted_invertible", faulty


# Fault name: (suite, fault, failing cases at default options, all cases).
FAULTS = {
    "product-girth class 6 as 4": (
        "product-girth", lambda: girth_class_predicted_as_4(6), 7, 304,
    ),
    "product-girth class 0 as 4": (
        "product-girth", lambda: girth_class_predicted_as_4(0), 13, 304,
    ),
    "product-girth class 3 as 4": (
        "product-girth", lambda: girth_class_predicted_as_4(3), 61, 304,
    ),
    "invertibility P4 x P2^j singular for j >= 2": (
        "invertibility", p4_times_p2_powers_called_singular, 20, 503,
    ),
}


def rebuilt_trees(witness):
    return [Tree(build_graph(f["num_vertices"], f["edges"])) for f in witness["input"]]


@pytest.mark.parametrize("name", FAULTS)
def test_default_corpus_catches_the_fault(name):
    suite, fault, failing, cases = FAULTS[name]
    check = suites.SUITES[suite].check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*fault())
        report = suites.run_suite(suite)
        assert not report.passed
        assert (report.fail_count, report.pass_count + report.fail_count) == (failing, cases)
        witness = rebuilt_trees(report.first_failure_witness)
        assert check(witness)[0] is False
    assert check(witness) == (True, None)
