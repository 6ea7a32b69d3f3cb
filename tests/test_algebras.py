from itertools import product as cartesian

import pytest

from distlaw import (Algebra, Gen, Inj, IntComb, ONE, Seq,
                     CompositeMonad, algebra_from_function, check_algebra,
                     lift_to_algebras)
from distlaw.errors import NotAnAlgebra
from distlaw.laws import (LAW_PRODUCT_OVER_SUM_COMM, LAW_UNIT_ABSORPTION)
from distlaw.monads import (ADJOIN_UNIT, FREE_ABELIAN_GROUP, FREE_COMM_MONOID,
                            FREE_SEMIGROUP)

a = Gen("a")


def one_element_semigroup():
    return algebra_from_function(FREE_SEMIGROUP, (a,), lambda w: a, 3)


def test_check_algebra_accepts_the_one_element_semigroup():
    assert check_algebra(one_element_semigroup()).passed


def test_check_algebra_rejects_a_broken_action():
    x, y = Gen("x"), Gen("y")
    # "always y" violates the unit law at x
    broken = algebra_from_function(FREE_SEMIGROUP, (x, y), lambda w: y, 2)
    assert not check_algebra(broken).passed


def test_lift_rejects_a_non_algebra():
    x, y = Gen("x"), Gen("y")
    broken = algebra_from_function(FREE_SEMIGROUP, (x, y), lambda w: y, 2)
    with pytest.raises(NotAnAlgebra):
        lift_to_algebras(LAW_UNIT_ABSORPTION, broken)


def test_a_missing_entry_within_the_bound_fails_the_law():
    empty = Algebra(FREE_SEMIGROUP, (a,), {}, 2)
    report = check_algebra(empty)
    assert not report.passed
    unit = report.sections[0]
    assert unit.title == "algebra[free-semigroup]:unit"
    assert [w.input for w in unit.witnesses] == [a]
    with pytest.raises(NotAnAlgebra) as info:
        lift_to_algebras(LAW_UNIT_ABSORPTION, empty)
    assert str(info.value).startswith("input algebra violates its laws: ")


def test_a_lookup_beyond_the_bound_is_skipped():
    # the unit on the weight-3 element weighs 3, beyond the table's bound
    heavy = Seq((a, a, a))
    alg = algebra_from_function(FREE_SEMIGROUP, (a, heavy), lambda w: a, 2)
    unit = check_algebra(alg).sections[0]
    assert unit.passed
    assert unit.checked == 1


def test_lift_rejects_an_algebra_of_the_wrong_monad():
    wrong = algebra_from_function(FREE_COMM_MONOID, (a,), lambda w: a, 2)
    with pytest.raises(NotAnAlgebra):
        lift_to_algebras(LAW_UNIT_ABSORPTION, wrong)


def test_lifting_adjoins_a_two_sided_unit():
    lifted = lift_to_algebras(LAW_UNIT_ABSORPTION, one_element_semigroup())
    assert set(lifted.carrier) == {Inj(a), ONE}
    table = {(u, v): lifted.act(Seq((u, v)))
             for u in (Inj(a), ONE) for v in (Inj(a), ONE)}
    assert table == {
        (Inj(a), Inj(a)): Inj(a),
        (Inj(a), ONE): Inj(a),
        (ONE, Inj(a)): Inj(a),
        (ONE, ONE): ONE,
    }


def test_lifting_the_free_algebra_acts_by_mult():
    S, T, law = FREE_SEMIGROUP, ADJOIN_UNIT, LAW_UNIT_ABSORPTION
    base = [a, Gen("b")]
    free_carrier = S.enumerate(base, 2)
    free = algebra_from_function(S, free_carrier, S.mult, 2)
    lifted = lift_to_algebras(law, free)
    for s in S.enumerate(T.enumerate(free_carrier, 2), 2):
        assert lifted.act(s) == T.fmap(S.mult, law.transform(s))


def two_element_mult_monoid():
    """The multiplicative monoid {0, 1}: empty product is 1, 0 absorbs."""
    z0, z1 = Gen("n0"), Gen("n1")
    def act(mono):
        return z0 if any(x == z0 for x in mono.items) else z1
    return z0, z1, algebra_from_function(FREE_COMM_MONOID, (z0, z1), act, 3)


def test_lifting_to_formal_sums_matches_direct_expansion():
    z0, z1, alg = two_element_mult_monoid()
    lifted = lift_to_algebras(LAW_PRODUCT_OVER_SUM_COMM, alg)
    inputs = FREE_COMM_MONOID.enumerate(
        FREE_ABELIAN_GROUP.enumerate((z0, z1), 2), 2)
    for s in inputs:
        # direct expansion: multiply the formal sums out by hand
        expected = {}
        for choice in cartesian(*[list(f.pairs) for f in s.items]):
            coeff = 1
            elements = []
            for g, k in choice:
                coeff *= k
                elements.append(g)
            value = z0 if any(g == z0 for g in elements) else z1
            expected[value] = expected.get(value, 0) + coeff
        assert lifted.act(s) == IntComb(tuple(expected.items()))


def _all_composite_algebras(monad, carrier, bound):
    """Every action table of the composite monad that satisfies its laws."""
    domain = monad.enumerate(list(carrier), bound)
    found = []
    for images in cartesian(carrier, repeat=len(domain)):
        candidate = Algebra(monad, carrier, dict(zip(domain, images)), bound)
        if check_algebra(candidate).passed:
            found.append(candidate)
    return found


def test_composite_algebras_split_and_recombine():
    """A composite algebra is an inner algebra plus a lifted outer action."""
    S, T, law = FREE_SEMIGROUP, ADJOIN_UNIT, LAW_UNIT_ABSORPTION
    PS = CompositeMonad(law)
    carrier = (Gen("x"), Gen("y"))
    algebras = _all_composite_algebras(PS, carrier, 2)
    assert algebras, "no composite algebras found at this bound"
    for alg in algebras:
        def theta_s(s):
            return alg.act(T.unit(s))
        def theta_t(t):
            return alg.act(T.fmap(S.unit, t))
        # the split halves are algebras of the two factors
        s_part = algebra_from_function(S, carrier, theta_s, 2)
        t_part = algebra_from_function(T, carrier, theta_t, 2)
        assert check_algebra(s_part).passed
        assert check_algebra(t_part).passed
        # and recombining them recovers the composite action exactly
        for ts in PS.enumerate(list(carrier), 2):
            recombined = theta_t(T.fmap(theta_s, ts))
            assert recombined == alg.act(ts)


def test_an_algebra_witness_keeps_each_legs_own_value():
    b = Gen("b")
    # a acts as b, and the table has no entry for (b), though it is within the bound
    alg = Algebra(FREE_SEMIGROUP, (a,), {Seq((a,)): b, Seq((a, a)): a}, 2)
    unit, action = check_algebra(alg).sections
    assert [(w.input, w.left, w.right) for w in unit.witnesses] == [(a, b, a)]
    assert [(w.input, w.left, w.right) for w in action.witnesses] == [
        (Seq((Seq((a,)),)), b, "error:action table has no entry for (b)"),
        (Seq((Seq((a,)), Seq((a,)))), a, "error:action table has no entry for (b.b)"),
        (Seq((Seq((a, a)),)), a, b),
    ]
    assert action.checked == 3


def test_the_algebra_checks_stream_their_inputs(monkeypatch):
    import distlaw.algebras
    import distlaw.monads
    fed = []
    plain = distlaw.algebras._compare

    def recorded(check_id, inputs, left_leg, right_leg):
        fed.append(iter(inputs) is inputs)
        return plain(check_id, inputs, left_leg, right_leg)

    def listed(*_args):
        raise AssertionError("enum_stack was called")

    monkeypatch.setattr(distlaw.monads, "enum_stack", listed)
    monkeypatch.setattr(distlaw.algebras, "_compare", recorded)
    *_, alg = two_element_mult_monoid()
    lift_to_algebras(LAW_PRODUCT_OVER_SUM_COMM, alg)
    # the input algebra's two laws, the lifted algebra's two, then both morphisms
    assert fed == [True] * 6
