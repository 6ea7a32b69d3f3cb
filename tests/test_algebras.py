from itertools import product as cartesian

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import distlaw.algebras
from distlaw import (Algebra, Gen, Inj, IntComb, ONE, Seq,
                     CompositeMonad, algebra_from_function, check_algebra,
                     lift_to_algebras)
from distlaw.checks import compare_all
from distlaw.errors import NotAnAlgebra, ShapeMismatch
from distlaw.laws import (LAW_PRODUCT_OVER_SUM_COMM, LAW_UNIT_ABSORPTION)
from distlaw.monads import (ADJOIN_UNIT, FREE_ABELIAN_GROUP, FREE_COMM_MONOID,
                            FREE_SEMIGROUP)

from oracles import compare_within_table

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
        (Seq((Seq((a,)),)), b, "error:NotAnAlgebra: action table has no entry for (b)"),
        (Seq((Seq((a,)), Seq((a,)))), a, "error:NotAnAlgebra: action table has no entry for (b.b)"),
        (Seq((Seq((a, a)),)), a, b),
    ]
    assert action.checked == 3


def test_the_algebra_checks_stream_their_inputs(monkeypatch):
    import distlaw.algebras
    import distlaw.monads
    fed = []
    plain = distlaw.algebras.compare_all

    def recorded(inputs, sections):
        fed.append(iter(inputs) is inputs)
        return plain(inputs, sections)

    def listed(*_args):
        raise AssertionError("enum_stack was called")

    monkeypatch.setattr(distlaw.monads, "enum_stack", listed)
    monkeypatch.setattr(distlaw.algebras, "compare_all", recorded)
    *_, alg = two_element_mult_monoid()
    lift_to_algebras(LAW_PRODUCT_OVER_SUM_COMM, alg)
    # the input algebra's two laws, the lifted algebra's two, then both morphisms
    assert fed == [True] * 6


def _leaf(report):
    return report.title, report.checked, [(w.input, w.left, w.right) for w in report.witnesses]


def _beside_the_reference(rows):
    """A stand-in for ``algebras.compare_all`` that runs each row both
    through it and through ``compare_within_table``, and keeps both
    with the row's number of inputs."""
    def run(inputs, sections):
        inputs = list(inputs)
        reports = compare_all(inputs, sections)
        rows.append(([_leaf(r) for r in reports],
                     [_leaf(compare_within_table(check_id, inputs, left, right))
                      for check_id, left, right in sections], len(inputs)))
        return reports
    return run


def _lift_beside_the_reference(law, alg):
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distlaw.algebras, "compare_all", _beside_the_reference(rows))
        try:
            lift_to_algebras(law, alg)
        except NotAnAlgebra:
            pass
    return rows


# A lawful action on any totally ordered carrier: the first item of a word
# (the left-zero semigroup), the greatest item of a multiset (the max monoid).
LIFTS = {
    "semigroup": (FREE_SEMIGROUP, LAW_UNIT_ABSORPTION, lambda t, carrier: t.items[0]),
    "comm-monoid": (FREE_COMM_MONOID, LAW_PRODUCT_OVER_SUM_COMM,
                    lambda t, carrier: max(t.items, key=lambda x: x.key, default=carrier[0])),
}
# the third element weighs 2, so at bound 1 its unit lies beyond the table's bound
ELEMENTS = [Gen("n0"), Gen("n1"), Seq((Gen("n0"), Gen("n0")))]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_algebra_diagrams_match_their_reference_loop(split_after, data):
    """Drawn tables, lawful but for entries made wrong, dropped within the
    bound or dropped past it: every row of ``lift_to_algebras``, the
    ``check_algebra`` rows of both algebras and both morphism diagrams,
    reads as the algebras' own loop read it."""
    monad, law, lawful = LIFTS[data.draw(st.sampled_from(sorted(LIFTS)))]
    carrier = sorted(data.draw(st.lists(st.sampled_from(ELEMENTS), min_size=1, max_size=2,
                                        unique=True)), key=lambda x: x.key)
    bound = data.draw(st.integers(1, 2))
    domain = monad.enumerate(carrier, bound + 1)
    table = {t: lawful(t, carrier) for t in domain}
    edits = data.draw(st.dictionaries(st.sampled_from(domain),
                                      st.none() | st.sampled_from(carrier)))
    for t, value in edits.items():
        if value is None:
            del table[t]
        else:
            table[t] = value
    rows = _lift_beside_the_reference(law, Algebra(monad, carrier, table, bound))
    # the input algebra's two rows; then, if it passes and its lift is
    # tabled, the lifted algebra's two and both morphisms
    assert len(rows) in (2, 6)
    for got, want, _ in rows:
        assert got == want


@pytest.mark.parametrize("lift", sorted(LIFTS))
def test_the_reference_loop_meets_morphisms_and_skips(split_after, lift):
    """The drawn cases' two extremes, fixed: an untouched table on the
    first two elements reaches both morphism diagrams, and on the light
    and the heavy element at bound 1 the heavy unit is skipped."""
    monad, law, lawful = LIFTS[lift]
    for carrier, bound in ((ELEMENTS[:2], 2), (ELEMENTS[::2], 1)):
        alg = algebra_from_function(monad, carrier, lambda t: lawful(t, carrier), bound)
        rows = _lift_beside_the_reference(law, alg)
        assert all(got == want for got, want, _ in rows)
        if bound == 2:
            titles = [title for got, _, _ in rows for title, _, _ in got]
            assert titles[-2:] == [f"lift[{law.name}]:unit-morphism",
                                   f"lift[{law.name}]:mult-morphism"]
        else:  # the input algebra's unit row: two elements, the heavy one skipped
            [(_, checked, _)], _, inputs = rows[0]
            assert (checked, inputs) == (1, 2)


def _no_shape(t):
    raise ShapeMismatch(f"no shape for {t}")


def test_a_package_error_in_an_algebra_row_is_a_witness(split_after):
    """Algebra legs once caught only ``NotAnAlgebra``; now any package error
    is that leg's value, as in every other check."""
    b = Gen("b")
    alg = algebra_from_function(FREE_SEMIGROUP, (a, b), lambda w: w.items[0], 2)
    rows = [("stub", [FREE_SEMIGROUP], _no_shape, alg.act)]
    report, = distlaw.algebras._diagrams(alg, rows)
    inputs = FREE_SEMIGROUP.enumerate([a, b], 2)
    assert _leaf(report) == _leaf(compare_within_table("stub", inputs, _no_shape, alg.act))
    assert report.checked == len(inputs) == 6
    assert report.witnesses[0].left == "error:ShapeMismatch: no shape for (a)"
    assert [w.right for w in report.witnesses] == [alg.act(t) for t in inputs]


def test_a_lookup_past_the_bound_after_a_failed_one_is_a_witness(split_after):
    """Only the first error of an input decides a skip."""
    heavy = Seq((a, a))
    # (a) acts as the heavy element, and (a.a), within the bound, has no entry
    alg = Algebra(FREE_SEMIGROUP, (a, heavy), {Seq((a,)): heavy, Seq((heavy,)): heavy}, 2)
    action = check_algebra(alg).sections[1]
    assert [(w.left, w.right) for w in action.witnesses if w.input == Seq((Seq((a,)),) * 2)] == [
        ("error:NotAnAlgebra: action table has no entry for (a.a)",
         "error:_OutOfTable: action table has no entry for ((a.a).(a.a))")]
