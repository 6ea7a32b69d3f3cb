import pytest
from hypothesis import given
from hypothesis import strategies as st

from distlaw import Carrier, Gen, Inj, IntComb, MSet, ONE, Seq, ZERO
from distlaw.errors import UnknownGenerator
from distlaw.terms import functions_between, gen_count, weight

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


def test_gen_count_ignores_constants():
    assert gen_count(Seq((a, b, a))) == 3
    assert gen_count(ONE) == 0
    assert gen_count(Inj(MSet((ONE, Inj(Seq((a,))))))) == 1
    assert gen_count(IntComb(((Seq((a, b)), -2),))) == 4


@given(st.lists(st.sampled_from([a, b, c, ONE]), max_size=6))
def test_multiset_order_invariance(items):
    assert MSet(items) == MSet(list(reversed(items)))


@given(st.lists(st.tuples(st.sampled_from([a, b, c]), st.integers(-3, 3)), max_size=6))
def test_intcomb_coefficients_add(pairs):
    doubled = IntComb(tuple(pairs) + tuple(pairs))
    single = IntComb(tuple((t, 2 * k) for t, k in pairs))
    assert doubled == single
