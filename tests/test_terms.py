import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distlaw import Carrier, Gen, Inj, IntComb, MSet, ONE, Seq, ZERO
from distlaw.errors import UnknownGenerator
from distlaw.globular import GenCell, StringCell
from distlaw.terms import Keyed, weight

from oracles import functions_between, reference_normal_form

a, b, c = Gen("a"), Gen("b"), Gen("c")


def test_multiset_sorts_on_construction():
    assert MSet((b, a, b)) == MSet((a, b, b))
    assert MSet((b, a)).items == (a, b)


def test_intcomb_merges_and_drops_zeros():
    t = IntComb(((a, 1), (b, 2), (a, 2), (b, -2)))
    assert t.pairs == ((a, 3),)
    assert IntComb(((a, 1), (a, -1))) == IntComb(())


def test_intcomb_takes_pairs_in_key_order_as_they_come_and_merges_the_rest(monkeypatch):
    x, y, z = Seq((a, b)), MSet((b, a)), IntComb(((a, 2), (Seq(()), -1)))
    ordered = sorted([(a, 2), (x, 0), (y, -1), (z, 3), (Inj(a), 1)], key=lambda p: p[0].key)
    hashed = []
    plain_hash = Keyed.__hash__
    monkeypatch.setattr(Keyed, "__hash__", lambda t: hashed.append(t) or plain_hash(t))
    term = IntComb(ordered)
    assert hashed == []
    IntComb(ordered[::-1])  # the merge hashes each term: the count sees it
    assert hashed
    monkeypatch.undo()
    nonzero = tuple(p for p in ordered if p[1])
    assert term.pairs == nonzero
    assert all(t is u for (t, _), (u, _) in zip(term.pairs, nonzero))

    # one pair out of order, and one adjacent duplicate of a fresh equal term
    swapped = [ordered[1], ordered[0], *ordered[2:]]
    duplicated = [*ordered[:3], (MSet((a, b)), 5), *ordered[3:]]
    for inputs in (swapped, duplicated):
        term = IntComb(inputs)
        want, key, want_weight = reference_normal_form(IntComb, inputs)
        assert term.pairs == want and term.key == key and weight(term) == want_weight
        assert all(t is u for (t, _), (u, _) in zip(term.pairs, want))


@pytest.mark.parametrize("bad", [(c, 1.5), ("c", 1)])
def test_intcomb_checks_every_pair_after_one_out_of_order(bad):
    with pytest.raises(AssertionError):
        IntComb(((b, 1), (a, 1), bad))


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


IN_KEY_ORDER = "in key order"  # an IntComb spec whose pairs are sorted once built


def _term_specs(children):
    items = st.lists(children, max_size=4)
    pairs = st.lists(st.tuples(children, st.integers(-2, 2)), max_size=4)
    # an optional adjacent duplicate: (position, coefficient)
    in_order = st.tuples(pairs, st.none() | st.tuples(st.integers(0, 3), st.integers(-2, 2)))
    return st.one_of(st.tuples(st.just(Seq), items), st.tuples(st.just(MSet), items),
                     st.tuples(st.just(IntComb),
                               st.tuples(pairs, st.integers(0, 2)).map(_with_cancellations)),
                     st.tuples(st.just(IN_KEY_ORDER), in_order), st.tuples(st.just(Inj), children))


TERM_SPECS = st.recursive(st.sampled_from([a, b, ONE, ZERO]), _term_specs, max_leaves=16)


def _in_key_order(body, built):
    """Pairs in strictly increasing key order, the first term drawn with
    each key kept; a duplicate ``(i, k)`` puts a fresh term equal to the
    ``i``-th, with coefficient ``k``, right after it."""
    drawn, duplicate = body
    first = {}
    for s, k in drawn:
        t = _build_checked(s, built)
        first.setdefault(t.key, (s, t, k))
    ordered = [first[key] for key in sorted(first)]
    inputs = [(t, k) for _, t, k in ordered]
    if duplicate is not None and ordered:
        i, k = duplicate
        i %= len(ordered)
        inputs.insert(i + 1, (_build_checked(ordered[i][0], built), k))
    return inputs


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
    elif shape in (IntComb, IN_KEY_ORDER):
        if shape is IntComb:
            inputs = [(_build_checked(s, built), k) for s, k in body]
        else:
            shape, inputs = IntComb, _in_key_order(body, built)
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
