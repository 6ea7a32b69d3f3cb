import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distlaw import Carrier, Gen, Inj, IntComb, MSet, ONE, Seq, ZERO
from distlaw.errors import UnknownGenerator
from distlaw.globular import GenCell, StringCell
from distlaw.terms import functions_between, weight

from oracles import reference_normal_form

a, b, c = Gen("a"), Gen("b"), Gen("c")


def test_multiset_sorts_on_construction():
    assert MSet((b, a, b)) == MSet((a, b, b))
    assert MSet((b, a)).items == (a, b)


def test_intcomb_merges_and_drops_zeros():
    t = IntComb(((a, 1), (b, 2), (a, 2), (b, -2)))
    assert t.pairs == ((a, 3),)
    assert IntComb(((a, 1), (a, -1))) == IntComb(())


def test_structural_equality_and_hash():
    assert Seq((a, b)) == Seq((a, b))
    assert Seq((a, b)) != Seq((b, a))
    assert hash(MSet((a, b))) == hash(MSet((b, a)))
    assert Inj(ONE) != ONE
    assert Inj(Inj(a)) != Inj(a)


def test_coefficients_minus_one_and_minus_two_hash_apart():
    # CPython hashes -1 as -2; a combination hashes 2 * c, which is never -1
    assert hash(-1) == hash(-2)
    for x in (a, Seq((a, b))):
        assert hash(IntComb(((x, -1),))) != hash(IntComb(((x, -2),)))
        assert hash(IntComb(((x, -1), (b, 3)))) != hash(IntComb(((x, -2), (b, 3))))


def test_weights_floor_at_one_per_structure():
    assert weight(a) == 1 and weight(Inj(a)) == 1
    assert weight(ONE) == 1 and weight(ZERO) == 1
    assert weight(Seq((a, a, b))) == 3
    assert weight(IntComb(((a, 2), (b, -1)))) == 3
    assert weight(IntComb(((Seq((a, b)), 2),))) == 4
    assert weight(IntComb(((Seq(()), 5),))) == 5
    assert weight(Seq(())) == 1
    assert weight(MSet(())) == 1
    assert weight(IntComb(())) == 1
    assert weight(Seq((Seq(()), Seq(())))) == 2
    assert weight(Inj(IntComb(()))) == 1


def test_keys_give_a_total_order():
    terms = [Seq(()), a, b, MSet((a,)), IntComb(((a, 1),)), ONE, ZERO, Inj(a)]
    ordered = sorted(terms, key=lambda t: t.key)
    assert sorted(ordered, key=lambda t: t.key) == ordered
    assert len(set(terms)) == len(terms)


def test_carrier_basics():
    X = Carrier.of_size(3)
    assert X.names == ("a", "b", "c")
    assert X.gen("b") == b
    with pytest.raises(UnknownGenerator):
        X.gen("z")
    with pytest.raises(ValueError):
        Carrier(("a", "a"))
    with pytest.raises(ValueError):
        Carrier.of_size(-1)


def test_carrier_of_size_past_alphabet():
    X = Carrier.of_size(28)
    assert len(X) == 28
    assert len(set(X.names)) == 28


def test_functions_between_counts():
    X, Y = Carrier.of_size(2), Carrier.of_size(3)
    assert len(functions_between(X, Y)) == 9
    assert len(functions_between(Y, X)) == 8


@given(st.lists(st.sampled_from([a, b, c, ONE]), max_size=6))
def test_multiset_order_invariance(items):
    assert MSet(items) == MSet(list(reversed(items)))


@given(st.lists(st.tuples(st.sampled_from([a, b, c]), st.integers(-3, 3)), max_size=6))
def test_intcomb_coefficients_add(pairs):
    doubled = IntComb(tuple(pairs) + tuple(pairs))
    single = IntComb(tuple((t, 2 * k) for t, k in pairs))
    assert doubled == single


def _with_cancellations(pairs_and_negate):
    pairs, negate = pairs_and_negate
    return pairs + [(spec, -k) for spec, k in pairs[:negate]]


def _term_specs(children):
    items = st.lists(children, max_size=4)
    pairs = st.tuples(st.lists(st.tuples(children, st.integers(-2, 2)), max_size=4),
                      st.integers(0, 2)).map(_with_cancellations)
    return st.one_of(st.tuples(st.just(Seq), items), st.tuples(st.just(MSet), items),
                     st.tuples(st.just(IntComb), pairs), st.tuples(st.just(Inj), children))


TERM_SPECS = st.recursive(st.sampled_from([a, b, ONE, ZERO]), _term_specs, max_leaves=16)


def _build_checked(spec, built):
    """Build ``spec`` bottom-up, fresh objects for equal subspecs, and
    check every constructor against the reference normal form."""
    if not isinstance(spec, tuple):
        return spec
    shape, body = spec
    if shape is Inj:
        inputs = _build_checked(body, built)
        term = Inj(inputs)
        got = term.inner
    elif shape is IntComb:
        inputs = [(_build_checked(s, built), k) for s, k in body]
        term = IntComb(iter(inputs))
        got = term.pairs
    else:
        inputs = [_build_checked(s, built) for s in body]
        term = shape(iter(inputs))
        got = term.items
    want, key, want_weight = reference_normal_form(shape, inputs)
    assert got == want and term.key == key and weight(term) == want_weight
    if shape is IntComb:
        assert all(t is u for (t, _), (u, _) in zip(got, want))
    elif shape is not Inj:
        assert all(t is u for t, u in zip(got, want))
    built.append(term)
    return term


@given(st.lists(TERM_SPECS, min_size=1, max_size=3))
def test_constructors_agree_with_the_reference_normal_form(specs):
    built = []
    for spec in specs:
        _build_checked(spec, built)
    for s in built:
        for t in built:
            assert (s == t) == (s.key == t.key)
            if s == t:
                assert hash(s) == hash(t)


def test_every_term_and_cell_survives_pickle():
    """Witnesses come back from the workers of ``compare_all`` as pickles."""
    x, y = GenCell("x", 0), GenCell("y", 0)
    f = GenCell("f", 1, x, y)
    grid = StringCell(0, 1, [f, GenCell("g", 1, y, x)])
    grid._face(True)  # a face built and kept goes with the cell
    values = [a, Inj(a), ONE, ZERO, Seq([a, Inj(b)]), MSet([c, a, a]),
              IntComb([(Seq([a, b]), 2), (ONE, -1)]), x, f, grid, StringCell(0, 1, [], x)]
    for value in values:
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value)
        assert back == value and back.key == value.key and hash(back) == hash(value)
        assert str(back) == str(value)
    # equal, not identical: no witness path may compare with ``is``
    assert pickle.loads(pickle.dumps(ONE)) is not ONE
