"""Seeded faults that each suite's default corpus must catch.

Each fault is one monkeypatch of the prediction that its suite reaches: a
suite that passes a wrong prediction checks nothing for the cases that the
fault changes. At the options of its row (the defaults unless given) each
fault must make its suite fail on exactly the cases it changes, and the
first failure witness must rebuild from its graph documents into an input
that fails the suite's check under the fault and passes it without.
"""

import pytest

from ecclab import invertibility, suites
from ecclab.serialize import graph_from_dict
from ecclab.trees import Tree, is_p2, is_p4, is_star


def girth_class_predicted_as(prediction, cls, wrong):
    """The class ``cls`` of the girth table that ``suites.<prediction>``
    gives, predicted as ``wrong``."""
    predict = getattr(suites, prediction)

    def faulty(case):
        girth = predict(case)
        return wrong if girth == cls else girth

    return suites, prediction, faulty


def invertibility_predicted(changed, verdict):
    """invertibility: every tuple of factor trees for which ``changed``
    holds predicted invertible if ``verdict``, else singular."""
    predict = invertibility.predicted_invertible

    def faulty(factor_trees):
        return verdict if changed(factor_trees) else predict(factor_trees)

    return invertibility, "predicted_invertible", faulty


def has_p4(factor_trees):
    return any(map(is_p4, factor_trees))


def p4_times_p2_powers(factor_trees):
    """P_4 box P_2^j for j >= 2."""
    return (
        len(factor_trees) >= 3
        and has_p4(factor_trees)
        and sum(map(is_p2, factor_trees)) == len(factor_trees) - 1
    )


def has_star_of_4_or_more(factor_trees):
    return any(is_star(t) and t.num_vertices >= 4 for t in factor_trees)


def has_two_non_p2(factor_trees):
    return sum(not is_p2(t) for t in factor_trees) >= 2


# The labelled trees with n <= 5, 145 of them, hold all three tree-girth
# classes, so the tree-girth faults run at trees_max_n=5 and no samples to
# keep the default sweep of n <= 8 out of Tier-1.
SMALL_TREES = dict(trees_max_n=5, samples=0)

# Fault name: (suite, run_suite options, fault, failing cases, all cases).
FAULTS = {
    "tree-girth class 0 as 4": (
        "tree-girth", SMALL_TREES,
        lambda: girth_class_predicted_as("predicted_tree_girth", 0, 4), 13, 145,
    ),
    "tree-girth class 3 as 4": (
        "tree-girth", SMALL_TREES,
        lambda: girth_class_predicted_as("predicted_tree_girth", 3, 4), 72, 145,
    ),
    "tree-girth class 4 as 3": (
        "tree-girth", SMALL_TREES,
        lambda: girth_class_predicted_as("predicted_tree_girth", 4, 3), 60, 145,
    ),
    "product-girth class 6 as 4": (
        "product-girth", {},
        lambda: girth_class_predicted_as("predicted_tree_product_girth", 6, 4), 7, 304,
    ),
    "product-girth class 0 as 4": (
        "product-girth", {},
        lambda: girth_class_predicted_as("predicted_tree_product_girth", 0, 4), 13, 304,
    ),
    "product-girth class 3 as 4": (
        "product-girth", {},
        lambda: girth_class_predicted_as("predicted_tree_product_girth", 3, 4), 61, 304,
    ),
    "invertibility P4 x P2^j singular for j >= 2": (
        "invertibility", {}, lambda: invertibility_predicted(p4_times_p2_powers, False), 20, 503,
    ),
    "invertibility stars on 4 or more vertices singular": (
        "invertibility", {}, lambda: invertibility_predicted(has_star_of_4_or_more, False),
        22, 503,
    ),
    "invertibility P4 factors singular": (
        "invertibility", {}, lambda: invertibility_predicted(has_p4, False), 69, 503,
    ),
    # Only the fixed negatives [P_3, P_3] and [S_3, P_3] have two factors
    # other than P_2, so this fault fails 2 cases; ROADMAP item 2's
    # exhaustive tree-product suite is the corpus that would cover it.
    "invertibility two non-P2 factors invertible": (
        "invertibility", {}, lambda: invertibility_predicted(has_two_non_p2, True), 2, 503,
    ),
}


def rebuilt_trees(documents):
    """The trees of a witness input: a tree suite's one graph document, or
    a product suite's list of them."""
    if isinstance(documents, dict):
        return Tree(graph_from_dict(documents).graph)
    return [Tree(graph_from_dict(d).graph) for d in documents]


@pytest.mark.parametrize("name", FAULTS)
def test_default_corpus_catches_the_fault(name):
    suite, options, fault, failing, cases = FAULTS[name]
    check = suites.SUITES[suite].check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(*fault())
        report = suites.run_suite(suite, **options)
        assert not report.passed
        assert (report.fail_count, report.pass_count + report.fail_count) == (failing, cases)
        witness = rebuilt_trees(report.first_failure_witness["input"])
        assert check(witness) is not None
    assert check(witness) is None
