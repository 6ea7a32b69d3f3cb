import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlaw import (Carrier, Gen, Inj, IntComb, ONE, Seq, ZERO, ZOO,
                     check_monad_laws, check_monad_naturality, enum_stack)
from distlaw.checks import CheckReport, compare_all
from distlaw.errors import BoundTooLarge, ShapeMismatch
from distlaw.monads import (ADJOIN_UNIT, ADJOIN_ZERO, FREE_ABELIAN_GROUP,
                            FREE_COMM_MONOID, FREE_MONOID, FREE_SEMIGROUP,
                            FreeMonoid, IDENTITY)
from distlaw.terms import MSet, weight
from oracles import check_functoriality, count_stack, functions_between, reference_enumeration

X1 = Carrier.of_size(1)
X2 = Carrier.of_size(2)
a, b = Gen("a"), Gen("b")


def test_free_monoid_enumeration_by_hand():
    assert FREE_MONOID.enumerate([a], 2) == [Seq(()), Seq((a,)), Seq((a, a))]


def test_pointed_enumeration_by_hand():
    assert set(ADJOIN_UNIT.enumerate(list(X2), 1)) == {Inj(a), Inj(b), ONE}


def test_abelian_group_enumeration_by_hand():
    got = FREE_ABELIAN_GROUP.enumerate([a], 2)
    expected = {IntComb(()), IntComb(((a, 1),)), IntComb(((a, -1),)),
                IntComb(((a, 2),)), IntComb(((a, -2),))}
    assert set(got) == expected


def test_multiset_and_combination_enumerations_match_brute_force():
    for domain in (list(X2), FREE_MONOID.enumerate(list(X2), 2)):
        for bound in range(5):
            bags = [Counter(c) for n in range(bound + 1)
                    for c in combinations_with_replacement(domain, n)
                    if sum(weight(x) for x in c) <= bound]
            multisets = FREE_COMM_MONOID.enumerate(domain, bound)
            assert len(multisets) == len(bags)
            assert set(multisets) == {MSet(bag.elements()) for bag in bags}
            combinations = FREE_ABELIAN_GROUP.enumerate(domain, bound)
            expected = {IntComb(tuple((x, s * n) for (x, n), s in zip(bag.items(), signs)))
                        for bag in bags for signs in product((1, -1), repeat=len(bag))}
            assert len(combinations) == len(expected)
            assert set(combinations) == expected


def test_abelian_group_enumeration_over_a_wide_domain():
    assert len(FREE_ABELIAN_GROUP.enumerate(list(Carrier.of_size(1500)), 1)) == 3001


def test_negative_bound_is_rejected():
    for monad in list(ZOO.values()) + [IDENTITY]:
        with pytest.raises(ValueError):
            monad.enumerate(list(X2), -1)
    with pytest.raises(ValueError):
        enum_stack([FREE_MONOID, ADJOIN_UNIT], list(X2), -1)
    with pytest.raises(ValueError):
        check_monad_laws(FREE_MONOID, X2, -1)


def test_two_raising_legs_are_a_witness():
    def bad(t):
        raise ShapeMismatch(f"no value at {t}")

    report, = compare_all([1, 2, 3], [("c", bad, bad)])
    assert report.verdict == "FAIL"
    assert len(report.witnesses) == 3


def test_a_report_that_checks_nothing_is_empty():
    (empty,), (ok,) = compare_all([], [("e", str, str)]), compare_all([1], [("p", str, str)])
    failed, = compare_all([1], [("f", str, int)])
    assert (empty.verdict, ok.verdict, failed.verdict) == ("EMPTY", "PASS", "FAIL")
    assert empty.passed and empty.lines() == ["CHECK e EMPTY"]
    assert CheckReport("s", sections=[ok, empty]).verdict == "EMPTY"
    assert CheckReport("s", sections=[empty, failed]).verdict == "FAIL"
    assert CheckReport("s", sections=[ok, ok]).verdict == "PASS"


def test_enumerations_have_no_duplicates_and_are_deterministic():
    for monad in ZOO.values():
        terms = monad.enumerate(list(X2), 3)
        assert len(set(terms)) == len(terms)
        assert terms == monad.enumerate(list(X2), 3)


def test_enumeration_extends_as_the_bound_grows():
    for monad in ZOO.values():
        small = monad.enumerate(list(X2), 2)
        large = monad.enumerate(list(X2), 4)
        assert large[:len(small)] == small


def test_enumerated_sizes_respect_the_bound():
    for monad in ZOO.values():
        for t in monad.enumerate(list(X2), 3):
            assert weight(t) <= 3


def test_stacked_enumerations_extend_as_the_bound_grows():
    """From bound 1 on, an enumeration is a prefix of the next bound's."""
    monads = list(ZOO.values()) + [IDENTITY]
    stacks = [[m] for m in monads] + [[m, n] for m in monads for n in monads]
    broken = []
    for stack in stacks:
        for bound in (1, 2):
            small = enum_stack(stack, X2, bound)
            large = enum_stack(stack, X2, bound + 1)
            if large[:len(small)] != small:
                broken.append(([m.name for m in stack], bound))
    assert broken == []


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.lists(st.sampled_from(list(ZOO.values())), max_size=2),
       st.integers(0, 8), st.randoms(use_true_random=False),
       st.sampled_from(list(ZOO.values()) + [IDENTITY]), st.integers(0, 4))
def test_enumerations_equal_the_breadth_first_reference(gens, nest, size, rng, monad, bound):
    """Order included, over a shuffled prefix of a nested domain."""
    domain = enum_stack(nest, Carrier.of_size(gens), 2)[:size]
    rng.shuffle(domain)
    assert monad.enumerate(domain, bound) == reference_enumeration(monad, domain, bound)


def test_the_associativity_inputs_are_streamed():
    """Only the unit laws' M(X) and the memo of mult are held, not M(M(M(X)))."""
    tracemalloc.start()
    try:
        assert check_monad_laws(FREE_ABELIAN_GROUP, X2, 3).total_checked() == 5841
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_a_large_bound_reaches_the_ceiling_in_little_memory(monkeypatch):
    """No step index grows with the bound: past the dearest element it stops
    changing, and a combination's coefficients are made as the walk needs them."""
    import distlaw.monads
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 50)
    for monad in (FREE_MONOID, FREE_SEMIGROUP, FREE_COMM_MONOID, FREE_ABELIAN_GROUP):
        tracemalloc.start()
        try:
            with pytest.raises(BoundTooLarge):
                monad.enumerate(list(X2), 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, monad.name


def test_bound_zero_keeps_only_the_constants():
    assert enum_stack([ADJOIN_UNIT, FREE_MONOID], X1, 0) == [ONE]


def test_unit_examples():
    assert FREE_MONOID.unit(a) == Seq((a,))
    assert ADJOIN_UNIT.unit(a) == Inj(a)
    assert FREE_ABELIAN_GROUP.unit(a) == IntComb(((a, 1),))


def test_mult_examples():
    flat = FREE_MONOID.mult(Seq((Seq((a, b)), Seq((Gen("c"),)))))
    assert flat == Seq((a, b, Gen("c")))
    comb = IntComb(((IntComb(((a, 1),)), 2), (IntComb(((a, -1),)), 1)))
    assert FREE_ABELIAN_GROUP.mult(comb) == IntComb(((a, 1),))
    assert ADJOIN_UNIT.mult(ONE) == ONE
    assert ADJOIN_UNIT.mult(Inj(ONE)) == ONE
    assert ADJOIN_UNIT.mult(Inj(Inj(a))) == Inj(a)
    assert ADJOIN_ZERO.mult(Inj(ZERO)) == ZERO


def test_mult_shape_errors():
    with pytest.raises(ShapeMismatch):
        FREE_MONOID.mult(Seq((a,)))
    with pytest.raises(ShapeMismatch):
        FREE_ABELIAN_GROUP.mult(IntComb(((a, 1),)))
    with pytest.raises(ShapeMismatch):
        ADJOIN_UNIT.mult(Inj(Seq(())))
    with pytest.raises(ShapeMismatch):
        FREE_SEMIGROUP.mult(Seq(()))


def test_monad_laws_all_zoo_members():
    for monad in ZOO.values():
        report = check_monad_laws(monad, X2, 2)
        assert report.passed, report.all_witnesses()[:1]


def test_monad_laws_trivially_pass_at_bound_one():
    for monad in ZOO.values():
        assert check_monad_laws(monad, X1, 1).passed


def test_identity_monad_is_a_monad():
    assert check_monad_laws(IDENTITY, X2, 3).passed
    assert IDENTITY.enumerate(list(X2), 3) == [a, b]


class BrokenFreeMonoid(FreeMonoid):
    """Negative control: flattening drops the last element."""

    name = "broken-free-monoid"

    def mult(self, t):
        flat = super().mult(t)
        return Seq(flat.items[:-1])


def test_broken_mult_fails_with_witness():
    report = check_monad_laws(BrokenFreeMonoid(), X2, 2)
    assert not report.passed
    witnessed_inputs = {str(w.input) for w in report.all_witnesses()}
    assert str(Seq((Seq((a,)), Seq((b,))))) in witnessed_inputs


def test_functoriality_identity_and_composition():
    pairs = []
    for f in functions_between(X2, X2)[:4]:
        for g in functions_between(X2, X1):
            pairs.append((f, g))
    for monad in ZOO.values():
        assert check_functoriality(monad, X2, 2, pairs).passed


def test_naturality_of_unit_and_mult():
    for monad in ZOO.values():
        report = check_monad_naturality(monad, X2, 2)
        assert report.passed
        # unit and mult at each of the 1 + 4 + 9 maps into sizes 1, 2 and 3
        assert [s.title for s in report.sections[:2]] == \
            [f"naturality[{monad.name}]:unit#0", f"naturality[{monad.name}]:mult#0"]
        assert len(report.sections) == 2 * (1 + 4 + 9)


def test_naturality_needs_a_term_carrier():
    """A globular set has no maps to be natural in, so there is nothing to pass."""
    from distlaw import globular_set_from_names
    loop = globular_set_from_names(1, [["x"], ["e"]], [{"e": "x"}], [{"e": "x"}])
    for monad in (FREE_MONOID, *ZOO.values()):
        with pytest.raises(ShapeMismatch, match="needs a term Carrier"):
            check_monad_naturality(monad, loop, 2)


def test_naturality_maps_count_against_the_ceiling(monkeypatch):
    import distlaw.monads
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 20)
    # 1 + 8 + 27 = 36 maps out of three generators, before any enumeration
    with pytest.raises(BoundTooLarge):
        check_monad_naturality(FREE_MONOID, Carrier.of_size(3), 0)


def test_enum_ceiling_raises(monkeypatch):
    import distlaw.monads
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 2)
    for monad in ZOO.values():
        with pytest.raises(BoundTooLarge):
            monad.enumerate(list(X2), 3)


def test_bound_too_large_names_what_it_enumerates(monkeypatch):
    import distlaw.monads
    from distlaw import (CompositionMonad, brute_force_oracle, globular_set_from_names,
                         normalize_expr, parse_expr)
    loop = globular_set_from_names(1, [["x"], ["e"]], [{"e": "x"}], [{"e": "x"}])
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 2)
    for overflow, what in (
            (lambda: FREE_MONOID.enumerate(list(X2), 3), "free-monoid at bound 3"),
            (lambda: ADJOIN_UNIT.enumerate(list(X2), 1), "adjoin-unit at bound 1"),
            (lambda: CompositionMonad(0, 1).enumerate(loop, 3), "compose-along-0 at bound 3"),
            (lambda: check_monad_naturality(FREE_MONOID, X1, 0), "naturality maps"),
            (lambda: brute_force_oracle(loop, 2), "cells of dimension 1 at bound 2"),
            (lambda: normalize_expr("rig", parse_expr("3*a", X1)), "rig literal 3")):
        with pytest.raises(BoundTooLarge) as info:
            overflow()
        assert str(info.value) == f"{what}: enumeration exceeds ceiling of 2 elements"


def test_enum_stack_counts_pointed_layers():
    # X ⊔ {*} ⊔ {*}: the two points stay distinct across layers
    terms = enum_stack([ADJOIN_UNIT, ADJOIN_UNIT], list(X2), 2)
    assert len(terms) == len(X2) + 2
    assert ONE in terms and Inj(ONE) in terms


def _terms_strategy(monad):
    return st.sampled_from(monad.enumerate(list(X2), 3))


@settings(max_examples=40)
@given(_terms_strategy(FREE_COMM_MONOID))
def test_mult_after_unit_roundtrip_commutative(t):
    assert FREE_COMM_MONOID.mult(FREE_COMM_MONOID.unit(t)) == t


@settings(max_examples=40)
@given(_terms_strategy(FREE_ABELIAN_GROUP))
def test_mult_after_unit_roundtrip_abelian(t):
    M = FREE_ABELIAN_GROUP
    assert M.mult(M.unit(t)) == t
    assert M.mult(M.fmap(M.unit, t)) == t


def test_the_symbolic_counter_counts_every_small_stack():
    cases = elements = 0
    for depth, top in ((1, 3), (2, 3), (3, 2)):
        for stack in product(ZOO.values(), repeat=depth):
            names = [m.name for m in stack]
            for gens in (1, 2):
                for bound in range(top + 1):
                    listed = len(enum_stack(list(stack), list(Carrier.of_size(gens)), bound))
                    assert listed == count_stack(names, gens, bound), (names, gens, bound)
                    cases, elements = cases + 1, elements + listed
    assert (cases, elements) == (2506, 25644)


def test_every_small_stack_is_sized_without_walking():
    """A top layer's size equals its listed length and the symbolic count,
    and leaves the stream unread, for every zoo stack of depth one to three."""
    cases = 0
    layer = cache(lambda stack, gens, bound: enum_stack(list(stack), list(Carrier.of_size(gens)),
                                                         bound))
    for depth in (1, 2, 3):
        for stack in product(ZOO.values(), repeat=depth):
            for gens in (1, 2):
                for bound in range(5):
                    below = layer(stack[1:], gens, bound)
                    stream = stack[0].stream(below, bound)
                    size = stream.size()
                    assert size == count_stack([m.name for m in stack], gens, bound)
                    assert size == stack[0].stream(below, bound).size()
                    if size <= 2000:
                        assert len(list(stream)) == size
                    cases += 1
    assert cases == 3990


def test_a_size_past_the_ceiling_does_not_raise(monkeypatch):
    """The walk stops at the ceiling; the size counts past it, even at a
    bound no walk could reach."""
    import distlaw.monads
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 50)
    for monad in (FREE_MONOID, FREE_COMM_MONOID, FREE_ABELIAN_GROUP):
        stream = monad.stream(list(X2), 9)
        assert stream.size() == count_stack([monad.name], 2, 9) > 50
        with pytest.raises(BoundTooLarge):
            list(stream)
    bound = 10 ** 4
    # n + 1 multisets and 4n combinations of weight n over two generators
    assert FREE_COMM_MONOID.stream(list(X2), bound).size() == \
        1 + sum(n + 1 for n in range(1, bound + 1))
    assert FREE_ABELIAN_GROUP.stream(list(X2), bound).size() == \
        1 + sum(4 * n for n in range(1, bound + 1))
