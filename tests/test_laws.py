from itertools import product as cartesian

import pytest

from distlaw import Carrier, DistLaw, Gen, Inj, IntComb, MSet, ONE, Seq, ZERO
from distlaw.errors import ShapeMismatch
from distlaw.laws import (LAW_PRODUCT_OVER_SUM_COMM, LAW_PRODUCT_OVER_SUM_RIG,
                          LAW_PRODUCT_OVER_SUM_WORDS, LAW_UNIT_ABSORPTION,
                          LAW_UNIT_INTO_SUM_RIG, LAW_UNIT_INTO_SUM_RING,
                          LAW_UNIT_PAST_ZERO, LAW_ZERO_ANNIHILATION,
                          LAW_ZERO_IN_SUM, REGISTERED_LAWS, embed_point)
from distlaw.monads import ADJOIN_UNIT, FREE_ABELIAN_GROUP, FREE_MONOID, ZOO
from distlaw.series import check_distlaw

from oracles import (MAT_ZERO, count_stack, eval_ring_nf_matrix, mat_add, mat_mul,
                     random_matrix)

X2 = Carrier.of_size(2)
a, b, c, d = (Gen(x) for x in "abcd")


def comb(*pairs):
    return IntComb(pairs)


def test_commutative_expansion_of_binomial_product():
    t = MSet((comb((a, 1), (b, 1)), comb((c, 1), (d, 1))))
    out = LAW_PRODUCT_OVER_SUM_COMM.transform(t)
    assert out == comb((MSet((a, c)), 1), (MSet((a, d)), 1),
                       (MSet((b, c)), 1), (MSet((b, d)), 1))


def test_commutative_expansion_of_a_square():
    t = MSet((comb((a, 1), (b, 1)), comb((a, 1), (b, 1))))
    out = LAW_PRODUCT_OVER_SUM_COMM.transform(t)
    assert out == comb((MSet((a, a)), 1), (MSet((a, b)), 2), (MSet((b, b)), 1))


def test_singleton_sums_pass_through():
    t = MSet((comb((a, 1)), comb((b, 1))))
    assert LAW_PRODUCT_OVER_SUM_COMM.transform(t) == comb((MSet((a, b)), 1))


def test_empty_product_becomes_the_unit_sum():
    assert LAW_PRODUCT_OVER_SUM_COMM.transform(MSet(())) == comb((MSet(()), 1))


def test_word_expansion_is_row_major():
    t = Seq((comb((a, 1), (b, 1)), comb((c, 1), (d, 1))))
    out = LAW_PRODUCT_OVER_SUM_WORDS.transform(t)
    assert out == comb((Seq((a, c)), 1), (Seq((a, d)), 1),
                       (Seq((b, c)), 1), (Seq((b, d)), 1))


def test_word_expansion_agrees_with_matrix_ring():
    """Evaluate both sides of the expansion on random matrix assignments."""
    import random
    rng = random.Random(7)
    factors = (comb((a, 2), (b, -1)), comb((c, 1), (d, 3)), comb((a, 1),))
    t = Seq(factors)
    expanded = LAW_PRODUCT_OVER_SUM_WORDS.transform(t)
    for _ in range(10):
        assignment = {n: random_matrix(rng) for n in "abcd"}
        direct = None
        for factor in factors:
            value = MAT_ZERO
            for g, k in factor.pairs:
                value = mat_add(value, tuple(tuple(k * x for x in row)
                                             for row in assignment[g.name]))
            direct = value if direct is None else mat_mul(direct, value)
        assert eval_ring_nf_matrix(expanded, assignment) == direct


def test_rig_expansion_counts_multiplicities():
    t = Seq((MSet((a, b)), MSet((a, b))))
    out = LAW_PRODUCT_OVER_SUM_RIG.transform(t)
    assert out == MSet((Seq((a, a)), Seq((a, b)), Seq((b, a)), Seq((b, b))))


def test_unit_absorption_examples():
    assert LAW_UNIT_ABSORPTION.transform(Seq((Inj(a), ONE, Inj(b)))) == Inj(Seq((a, b)))
    assert LAW_UNIT_ABSORPTION.transform(Seq((ONE, ONE))) == ONE
    assert LAW_UNIT_ABSORPTION.transform(Seq((Inj(a),))) == Inj(Seq((a,)))


def test_zero_annihilation_examples():
    assert LAW_ZERO_ANNIHILATION.transform(Seq((Inj(a), ZERO, Inj(b)))) == ZERO
    assert LAW_ZERO_ANNIHILATION.transform(Seq((Inj(a), Inj(b)))) == Inj(Seq((a, b)))
    assert LAW_ZERO_ANNIHILATION.transform(Seq((ZERO,))) == ZERO


def test_zero_in_sum_examples():
    assert LAW_ZERO_IN_SUM.transform(MSet((Inj(a), ZERO))) == Inj(MSet((a,)))
    assert LAW_ZERO_IN_SUM.transform(MSet((ZERO, ZERO))) == ZERO
    assert LAW_ZERO_IN_SUM.transform(MSet((Inj(a), Inj(b)))) == Inj(MSet((a, b)))


def test_point_embedding_examples():
    assert LAW_UNIT_INTO_SUM_RING.transform(ONE) == comb((ONE, 1))
    reinject = LAW_UNIT_INTO_SUM_RING.transform(Inj(comb((a, 1), (b, 1))))
    assert reinject == comb((Inj(a), 1), (Inj(b), 1))
    assert LAW_UNIT_INTO_SUM_RIG.transform(ONE) == MSet((ONE,))
    assert LAW_UNIT_INTO_SUM_RIG.transform(Inj(MSet((a, b)))) == MSet((Inj(a), Inj(b)))


def test_constants_slide_past_each_other():
    assert LAW_UNIT_PAST_ZERO.transform(ONE) == Inj(ONE)
    assert LAW_UNIT_PAST_ZERO.transform(Inj(ZERO)) == ZERO
    assert LAW_UNIT_PAST_ZERO.transform(Inj(Inj(a))) == Inj(Inj(a))


def test_transform_shape_errors():
    with pytest.raises(ShapeMismatch):
        LAW_PRODUCT_OVER_SUM_COMM.transform(Seq((comb((a, 1)),)))
    with pytest.raises(ShapeMismatch):
        LAW_UNIT_ABSORPTION.transform(Seq((a,)))
    with pytest.raises(ShapeMismatch):
        LAW_UNIT_PAST_ZERO.transform(ZERO)


def test_registry_has_exactly_nine_laws():
    assert len(REGISTERED_LAWS) == 9


def test_every_registered_law_passes_its_diagrams():
    for law in REGISTERED_LAWS.values():
        report = check_distlaw(law, X2, 3)
        assert report.passed, (law.name, report.all_witnesses()[:1])


@pytest.mark.parametrize("monad", list(ZOO.values()), ids=list(ZOO))
def test_the_point_law_holds_over_every_monad(monad):
    law = DistLaw(f"point-over-{monad.name}", ADJOIN_UNIT, monad,
                  lambda t: embed_point(t, monad))
    report = check_distlaw(law, X2, 3)
    assert report.passed, report.all_witnesses()[:1]
    assert report.total_checked() > 0


def test_unit_triangles_pass_trivially_at_bound_one():
    X1 = Carrier.of_size(1)
    for law in REGISTERED_LAWS.values():
        report = check_distlaw(law, X1, 1)
        assert report.passed


def test_identity_transform_is_not_a_law():
    bogus = DistLaw("bogus-identity", FREE_MONOID, FREE_ABELIAN_GROUP, lambda t: t)
    report = check_distlaw(bogus, X2, 2)
    assert not report.passed
    failing = {w.check_id.split(":")[-1] for w in report.all_witnesses()}
    assert "mult-S" in failing or "mult-T" in failing


def test_expansion_exhausts_all_choices():
    factors = [comb((a, 1), (b, 1)), comb((c, 1), (d, 1)), comb((a, 1), (d, 1))]
    out = LAW_PRODUCT_OVER_SUM_WORDS.transform(Seq(tuple(factors)))
    words = {w for w, _ in out.pairs}
    expected = {Seq(choice) for choice in
                cartesian(*[[g for g, _ in f.pairs] for f in factors])}
    assert words == expected


def _predicted_checked(law, generators, bound):
    """Each ``check_distlaw`` section's ``checked``, from the stacks of its rows:
    the four diagrams, then naturality over S(T(X)) once per map of carriers."""
    S, T = law.s_monad.name, law.t_monad.name
    maps = sum(size ** generators for size in (1, 2, 3))
    return ([count_stack(stack, generators, bound) for stack in ([T], [S, S, T], [S], [S, T, T])]
            + [count_stack([S, T], generators, bound)] * maps)


def test_the_symbolic_counter_predicts_every_distlaw_section():
    for law in REGISTERED_LAWS.values():
        assert [s.checked for s in check_distlaw(law, X2, 3).sections] == \
            _predicted_checked(law, 2, 3)
    # acceptance criterion 02: the nine laws over two generators at bound 4
    assert sum(sum(_predicted_checked(law, 2, 4)) for law in REGISTERED_LAWS.values()) == 122254
