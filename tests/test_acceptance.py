"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass.  Every bound and tolerance is fixed here; the oracles live in
``oracles.py`` and are independent of the code paths they check.
"""

import random
import time

import pytest

from distlaw import (Carrier, CompositeMonad, Gen, RIG_SERIES, RING3_SERIES,
                     REGISTERED_LAWS, Seq, ZOO, abelianize, brute_force_oracle,
                     check_distlaw, check_globular_distlaw,
                     check_globular_yang_baxter, check_interchange,
                     check_monad_laws, check_route_independence,
                     check_yang_baxter, enum_stack, free_ncat, interchange_law,
                     normalize_expr, padded_transpose_candidate)
from distlaw.errors import RaggedGrid
from distlaw.globular import StringCell, globular_set_from_names
from distlaw.laws import LAW_UNIT_ABSORPTION
from distlaw.monads import ADJOIN_UNIT, FREE_MONOID, FREE_SEMIGROUP, FreeMonoid
from distlaw.terms import ONE

from oracles import (eval_expr_matrix, eval_ring_nf_matrix, gen_count,
                     random_expression, random_matrix)

X1 = Carrier.of_size(1)
X2 = Carrier.of_size(2)


def report_line(number, name, elapsed, limit):
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS ({elapsed:.1f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_01_zoo_monad_laws():
    start = time.time()
    for monad in ZOO.values():
        outcome = check_monad_laws(monad, X2, 3)
        assert outcome.passed, (monad.name, outcome.all_witnesses()[:1])
    report_line(1, "zoo monad laws, bound 3", time.time() - start, 10)


def test_criterion_02_distributive_law_suites():
    start = time.time()
    assert len(REGISTERED_LAWS) == 9
    for law in REGISTERED_LAWS.values():
        outcome = check_distlaw(law, X2, 4)
        assert outcome.passed, (law.name, outcome.all_witnesses()[:1])
    report_line(2, "nine distributive laws, bound 4", time.time() - start, 60)


def test_criterion_03_yang_baxter_triples():
    start = time.time()
    assert check_yang_baxter(RING3_SERIES, 3, 2, 1, X1, 3).passed
    for triple in ((3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)):
        assert check_yang_baxter(RIG_SERIES, *triple, X1, 3).passed
    report_line(3, "Yang-Baxter, ring3 + rig, bound 3", time.time() - start, 60)


def test_criterion_04_route_independence():
    start = time.time()
    assert check_route_independence(RING3_SERIES, X1, 2).passed
    assert check_route_independence(RIG_SERIES, X1, 2).passed
    report_line(4, "route independence, bound 2", time.time() - start, 120)


def test_criterion_05_free_monoid_reconstruction():
    start = time.time()
    composite = CompositeMonad(LAW_UNIT_ABSORPTION)

    def to_word(term):
        return Seq(()) if term == ONE else term.inner

    lhs = composite.enumerate(list(X2), 4)
    rhs = FREE_MONOID.enumerate(list(X2), 4)
    mapped = [to_word(t) for t in lhs]
    assert len(set(mapped)) == len(mapped)
    assert set(mapped) == set(rhs)
    for t in lhs:
        assert gen_count(to_word(t)) == gen_count(t)
    for tt in enum_stack([ADJOIN_UNIT, FREE_SEMIGROUP] * 2, list(X2), 4):
        left = to_word(composite.mult(tt))
        right = FREE_MONOID.mult(FREE_MONOID.fmap(to_word, to_word(tt)))
        assert left == right
    report_line(5, "free-monoid reconstruction, bound 4", time.time() - start, 60)


def _expressions(count, seed=2024):
    rng = random.Random(seed)
    names = ["a", "b", "c"]
    return rng, names, [random_expression(rng, names, 6) for _ in range(count)]


def test_criterion_06_ring_normalization_soundness():
    start = time.time()
    rng, names, expressions = _expressions(200)
    for expr in expressions:
        normal = normalize_expr("ring3", expr)
        for _ in range(10):
            assignment = {n: random_matrix(rng) for n in names}
            assert eval_expr_matrix(expr, assignment) == \
                eval_ring_nf_matrix(normal, assignment)
    report_line(6, "ring3 soundness, 200 expressions x 10", time.time() - start, 10)


def test_criterion_07_ring2_ring3_agreement():
    start = time.time()
    _, _, expressions = _expressions(200)
    for expr in expressions:
        assert abelianize(normalize_expr("ring3", expr)) == \
            normalize_expr("ring2", expr)
    report_line(7, "abelianized ring3 equals ring2", time.time() - start, 60)


def _fixture_parallel():
    return globular_set_from_names(
        2,
        [["x", "y"], ["f", "g"], ["al", "be"]],
        [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}],
        [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}])


def _fixture_chain():
    return globular_set_from_names(
        2,
        [["x", "y", "z"],
         ["f1", "g1", "h1", "p", "q1", "q2"],
         ["a1", "a2", "c1", "c2"]],
        [{"f1": "x", "g1": "x", "h1": "x", "p": "y", "q1": "y", "q2": "y"},
         {"a1": "f1", "a2": "g1", "c1": "p", "c2": "q1"}],
        [{"f1": "y", "g1": "y", "h1": "y", "p": "z", "q1": "z", "q2": "z"},
         {"a1": "g1", "a2": "h1", "c1": "q1", "c2": "q2"}])


def _fixture_loop():
    return globular_set_from_names(
        2, [["x"], ["e"], ["u"]],
        [{"e": "x"}, {"u": "e"}], [{"e": "x"}, {"u": "e"}])


def _fixture_theta3():
    return globular_set_from_names(
        3,
        [["x", "y"], ["f", "g"], ["al", "be"], ["u", "v"]],
        [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}, {"u": "al", "v": "al"}],
        [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}, {"u": "be", "v": "be"}])


def test_criterion_08_globular_interchange():
    start = time.time()
    for gset in (_fixture_parallel(), _fixture_chain(), _fixture_loop()):
        outcome = check_interchange(1, 0, gset, 2)
        assert outcome.passed, outcome.all_witnesses()[:1]
    assert check_globular_yang_baxter(2, 1, 0, _fixture_theta3(), 2).passed
    report_line(8, "interchange + 3-dim Yang-Baxter, bound 2", time.time() - start, 120)


def test_criterion_09_free_ncat_oracle_match():
    start = time.time()
    graphs = [
        globular_set_from_names(1, [["v"], []], [{}], [{}]),
        globular_set_from_names(1, [["v0", "v1"], ["f"]],
                                [{"f": "v0"}], [{"f": "v1"}]),
        globular_set_from_names(1, [["v0", "v1"], ["f", "g"]],
                                [{"f": "v0", "g": "v1"}], [{"f": "v1", "g": "v1"}]),
    ]
    sets2 = [_fixture_parallel(), _fixture_chain(), _fixture_loop(),
             globular_set_from_names(2, [["x"], [], []], [{}, {}], [{}, {}])]
    for gset in graphs + sets2:
        assert free_ncat(gset, 2).counts() == brute_force_oracle(gset, 2)
    report_line(9, "free n-category versus oracle, bound 2", time.time() - start, 120)


class _BrokenFreeMonoid(FreeMonoid):
    name = "broken-free-monoid"

    def mult(self, t):
        flat = super().mult(t)
        return Seq(flat.items[:-1])


def test_criterion_10_negative_controls():
    start = time.time()
    # a deliberately broken multiplication fails with a witness
    broken = check_monad_laws(_BrokenFreeMonoid(), X2, 3)
    assert not broken.passed and broken.all_witnesses()
    a, b = Gen("a"), Gen("b")
    witnessed = {str(w.input) for w in broken.all_witnesses()}
    assert str(Seq((Seq((a,)), Seq((b,))))) in witnessed

    # a ragged grid is rejected outright
    chain = _fixture_chain()
    cells = {c.name: c for c in chain.cells_at(2)}
    ragged = StringCell(1, 2, (StringCell(0, 2, (cells["a1"], cells["c1"])),
                               StringCell(0, 2, (cells["a2"],))))
    with pytest.raises(RaggedGrid):
        interchange_law(ragged, 1, 0)

    # the identity-padding reverse candidate fails a coherence diagram
    padded = check_globular_distlaw(
        0, 1, lambda c: padded_transpose_candidate(c, 1, 0), chain, 2,
        title="pad-candidate")
    assert not padded.passed
    assert any(isinstance(w.left, StringCell) and isinstance(w.right, StringCell)
               for w in padded.all_witnesses())
    report_line(10, "negative controls", time.time() - start, 60)
