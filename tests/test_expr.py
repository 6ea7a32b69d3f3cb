import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlaw import Carrier, Gen, IntComb, MSet, Seq, THEORIES, ZERO, abelianize, \
    format_normal, normalize_expr, parse_expr
from distlaw.errors import ParseError, UnknownGenerator, UnsupportedNode
from distlaw.expr import Add, IntLit, Mul, Neg, Var
from distlaw.terms import weight

from oracles import (direct_normal_form, eval_expr_bool, eval_expr_matrix,
                     eval_ring2_nf_matrix, eval_ring_nf_matrix, eval_rig_nf_bool,
                     left_fold_product, mat_mul, random_expression, random_matrix)

X = Carrier(("a", "b", "c", "d", "x", "y"))


def test_parse_binomial_product():
    assert parse_expr("(a+b)*(c+d)", X) == Mul(Add(Var("a"), Var("b")),
                                               Add(Var("c"), Var("d")))


def test_subtraction_desugars():
    assert parse_expr("a - a", X) == Add(Var("a"), Neg(Var("a")))


def test_integer_literals():
    assert parse_expr("2*(x+y)", X) == Mul(IntLit(2), Add(Var("x"), Var("y")))
    assert parse_expr("0", X) == IntLit(0)
    assert parse_expr("1", X) == IntLit(1)


def test_precedence_and_unary_minus():
    assert parse_expr("a+b*c", X) == Add(Var("a"), Mul(Var("b"), Var("c")))
    assert parse_expr("-a*b", X) == Mul(Neg(Var("a")), Var("b"))
    assert parse_expr("a--b", X) == Add(Var("a"), Neg(Neg(Var("b"))))


def test_whitespace_is_insignificant():
    assert parse_expr(" ( a + b ) * c ", X) == parse_expr("(a+b)*c", X)


def test_parse_errors_report_position_and_expectations():
    with pytest.raises(ParseError) as info:
        parse_expr("a + ", X)
    assert info.value.position == 4
    assert "IDENT" in info.value.expected
    with pytest.raises(ParseError) as info:
        parse_expr("(a+b", X)
    assert info.value.expected == (")",)
    with pytest.raises(ParseError):
        parse_expr("a $ b", X)


def test_unknown_identifier_is_rejected():
    with pytest.raises(UnknownGenerator):
        parse_expr("a + q", X)


def nf(theory, src):
    return normalize_expr(theory, parse_expr(src, X))


def test_ring3_binomial_expansion():
    got = nf("ring3", "(a+b)*(c+d)")
    expected = IntComb(tuple((Seq((Gen(u), Gen(v))), 1)
                             for u in "ab" for v in "cd"))
    assert got == expected
    assert format_normal("ring3", got) == "a*c + a*d + b*c + b*d"


def test_ring3_cancellation():
    assert nf("ring3", "a - a") == IntComb(())
    assert format_normal("ring3", nf("ring3", "a - a")) == "0"


def test_ring3_keeps_word_order():
    assert nf("ring3", "a*b") != nf("ring3", "b*a")
    assert nf("ring2", "a*b") == nf("ring2", "b*a")


def test_rig_zero_annihilates_and_unit_vanishes():
    got = nf("rig", "a*0 + b")
    assert format_normal("rig", got) == "b"
    assert nf("rig", "0") == ZERO
    assert format_normal("rig", nf("rig", "a*1*b")) == "a*b"


def test_ring2_binomial_expansion():
    got = nf("ring2", "(a+b)*(c+d)")
    expected = IntComb(tuple((MSet((Gen(u), Gen(v))), 1)
                             for u in "ab" for v in "cd"))
    assert got == expected


def test_integer_literals_desugar_to_repeated_units():
    assert nf("ring3", "3") == nf("ring3", "1+1+1")
    assert nf("ring3", "-2*a") == nf("ring3", "0-a-a")
    assert nf("rig", "2*a") == nf("rig", "a+a")
    for theory in ("ring2", "ring3", "rig"):
        for k in (2, 3, 7):
            assert nf(theory, str(k)) == nf(theory, "+".join(["1"] * k))
            assert nf(theory, f"{k}*a") == nf(theory, "+".join(["a"] * k))


def test_rig_literal_past_the_ceiling_is_refused(monkeypatch):
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 20)
    assert nf("rig", "20*a") == nf("rig", "+".join(["a"] * 20))
    with pytest.raises(BoundTooLarge):
        nf("rig", "21*a")


def test_rig_product_past_the_ceiling_is_refused(monkeypatch):
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 100)
    assert format_normal("rig", nf("rig", "3*3*3*3")) == "81"
    with pytest.raises(BoundTooLarge, match="rig product"):
        nf("rig", "3*3*3*3*3")


def test_monoid_and_cmonoid_normal_forms():
    assert nf("monoid", "a*b*1*c") == Seq((Gen("a"), Gen("b"), Gen("c")))
    assert nf("cmonoid", "c*a*b") == MSet((Gen("a"), Gen("b"), Gen("c")))
    assert format_normal("monoid", nf("monoid", "1")) == "1"


def test_unsupported_nodes_per_theory():
    for theory, src in (("monoid", "a+b"), ("cmonoid", "a-a"),
                        ("rig", "-a"), ("monoid", "0"), ("cmonoid", "2")):
        with pytest.raises(UnsupportedNode):
            nf(theory, src)
    with pytest.raises(UnsupportedNode):
        normalize_expr("nope", parse_expr("a", X))


def test_deeply_nested_trees_are_unsupported():
    """Trees built without the parser may nest deeper than the stack allows."""
    a = Var("a")
    negations, products = a, a
    for _ in range(1200):
        negations = Neg(negations)
        products = Mul(a, products)
    for tree in (negations, products):
        with pytest.raises(UnsupportedNode, match="nested too deeply"):
            normalize_expr("ring3", tree)


def test_equal_ring_expressions_share_a_normal_form():
    pairs = [
        ("(a+b)*(a+b)", "a*a + a*b + b*a + b*b"),
        ("a*(b+c)", "a*b + a*c"),
        ("(a-b)*(a+b)", "a*a + a*b - b*a - b*b"),
        ("2*(a+b) - a - b", "a + b"),
        ("(a+b)*0", "0"),
        ("1*a*1", "a"),
    ]
    for left, right in pairs:
        assert nf("ring3", left) == nf("ring3", right), (left, right)


def test_ring3_soundness_against_matrix_ring_sample():
    rng = random.Random(11)
    names = ["a", "b", "c"]
    for _ in range(25):
        expr = random_expression(rng, names, 6)
        normal = normalize_expr("ring3", expr)
        for _ in range(5):
            assignment = {n: random_matrix(rng) for n in names}
            assert eval_expr_matrix(expr, assignment) == \
                eval_ring_nf_matrix(normal, assignment)


def test_ring2_soundness_on_commuting_assignments():
    rng = random.Random(19)
    names = ["a", "b", "c"]
    for _ in range(25):
        expr = random_expression(rng, names, 6)
        normal = normalize_expr("ring2", expr)
        for _ in range(5):
            assignment = {n: ((rng.randint(-2, 2), 0), (0, rng.randint(-2, 2)))
                          for n in names}
            assert eval_expr_matrix(expr, assignment) == \
                eval_ring2_nf_matrix(normal, assignment)


def test_rig_soundness_against_boolean_rig():
    rng = random.Random(13)
    names = ["a", "b", "c"]
    for _ in range(40):
        expr = random_expression(rng, names, 5)
        if _uses_negation(expr):
            continue
        normal = normalize_expr("rig", expr)
        for assignment in _all_bool_assignments(names):
            assert eval_expr_bool(expr, assignment) == \
                eval_rig_nf_bool(normal, assignment)


def _uses_negation(node):
    if isinstance(node, Neg):
        return True
    if isinstance(node, (Add, Mul)):
        return _uses_negation(node.left) or _uses_negation(node.right)
    return False


def _all_bool_assignments(names):
    from itertools import product
    for values in product((0, 1), repeat=len(names)):
        yield dict(zip(names, values))


def test_abelianized_ring3_equals_ring2():
    rng = random.Random(17)
    names = ["a", "b", "c"]
    for _ in range(40):
        expr = random_expression(rng, names, 6)
        assert abelianize(normalize_expr("ring3", expr)) == \
            normalize_expr("ring2", expr)


def test_format_signed_sums():
    assert format_normal("ring3", nf("ring3", "b - 2*a")) == "-2*a + b"
    assert format_normal("ring3", nf("ring3", "-3")) == "-3"
    assert format_normal("ring3", nf("ring3", "1 + a")) == "1 + a"
    assert format_normal("ring2", nf("ring2", "a*a - b")) == "a*a - b"


_leaves = st.sampled_from([Var("a"), Var("b"), IntLit(1), IntLit(0), IntLit(2), IntLit(3)])


def _sums_and_products(sub):
    return st.one_of(st.tuples(sub, sub).map(lambda p: Add(*p)),
                     st.tuples(sub, sub).map(lambda p: Mul(*p)))


_exprs = st.recursive(_leaves, lambda sub: st.one_of(_sums_and_products(sub), sub.map(Neg)),
                      max_leaves=8)
_rig_exprs = st.recursive(_leaves, _sums_and_products, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(_exprs)
def test_normalization_is_stable_and_sound(expr):
    normal = normalize_expr("ring3", expr)
    again = normalize_expr("ring3", expr)
    assert normal == again
    rng = random.Random(23)
    assignment = {n: random_matrix(rng) for n in ("a", "b")}
    assert eval_expr_matrix(expr, assignment) == \
        eval_ring_nf_matrix(normal, assignment)


@settings(max_examples=40, deadline=None)
@given(_exprs)
def test_commutative_image_of_word_normal_form(expr):
    assert abelianize(normalize_expr("ring3", expr)) == \
        normalize_expr("ring2", expr)


@settings(max_examples=300, deadline=None)
@given(_rig_exprs)
def test_rig_normal_form_agrees_with_both_oracles(expr):
    """The Boolean rig checks which words occur, 2x2 matrices how often."""
    normal = normalize_expr("rig", expr)
    for assignment in _all_bool_assignments(("a", "b")):
        assert eval_expr_bool(expr, assignment) == eval_rig_nf_bool(normal, assignment)
    words = () if normal == ZERO else normal.inner.items
    rng = random.Random(29)
    assignment = {n: random_matrix(rng) for n in ("a", "b")}
    assert eval_expr_matrix(expr, assignment) == \
        eval_ring_nf_matrix(IntComb(tuple((word, 1) for word in words)), assignment)


# per theory: factors drawn any number of times, then factors placed at most
# four times, so sums and large rig literals keep a 40-factor product small
_a, _b = Var("a"), Var("b")
_RING_FACTORS = ((_a, _b, IntLit(1), IntLit(2), Neg(_a)),
                 (Add(_a, _b), Add(_a, IntLit(1)), Neg(Add(_a, _b)), IntLit(0), IntLit(3)))
_PRODUCT_FACTORS = {
    "monoid": ((_a, _b, IntLit(1)), (IntLit(1),)),
    "cmonoid": ((_a, _b, IntLit(1)), (IntLit(1),)),
    "ring2": _RING_FACTORS,
    "ring3": _RING_FACTORS,
    "rig": ((_a, _b, IntLit(1)), (Add(_a, _b), Add(_a, IntLit(1)), IntLit(0), IntLit(2), IntLit(3))),
}


@st.composite
def _factors(draw, theory):
    common, rare = _PRODUCT_FACTORS[theory]
    factors = draw(st.lists(st.sampled_from(common), min_size=1, max_size=40))
    for at, factor in draw(st.lists(st.tuples(st.integers(0, 39), st.sampled_from(rare)),
                                    max_size=4)):
        factors[at % len(factors)] = factor
    return factors


@pytest.mark.parametrize("theory", sorted(_PRODUCT_FACTORS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_balanced_products_agree_with_the_left_fold(theory, data):
    """Among 1-40 factors, some count leaves an odd factor over at each level of the tree."""
    factors = data.draw(_factors(theory))
    product = reduce(Mul, factors)
    normal = normalize_expr(theory, product)
    assert normal == left_fold_product(THEORIES[theory], factors)
    if theory == "ring3":
        rng = random.Random(31)
        assignment = {n: random_matrix(rng) for n in ("a", "b")}
        assert eval_expr_matrix(product, assignment) == eval_ring_nf_matrix(normal, assignment)
    if theory == "rig":
        for assignment in _all_bool_assignments(("a", "b")):
            assert eval_expr_bool(product, assignment) == eval_rig_nf_bool(normal, assignment)


@pytest.mark.parametrize("theory", ("ring2", "ring3", "rig"))
def test_a_long_product_multiplies_operands_of_n_log_n_weight(theory, monkeypatch):
    """Each level of the product tree multiplies operands of total weight n;
    a left to right product would multiply about n*n/2."""
    n = 3000
    ops = THEORIES[theory]._ops
    mul, operand_weight = ops["mul"], []

    def counting_mul(u, v):
        operand_weight.append(weight(u) + weight(v))
        return mul(u, v)

    monkeypatch.setitem(ops, "mul", counting_mul)
    normal = normalize_expr(theory, reduce(Mul, [_a] * n))
    assert sum(operand_weight) <= n * (math.ceil(math.log2(n)) + 1)
    assert [(c, w.items) for c, w in THEORIES[theory].pieces(normal)] == [(1, (Gen("a"),) * n)]


def _pieces(theory, normal):
    """A normal form's ``format_normal`` pieces as a dict from monomials, tuples
    of names (sorted where the theory commutes), to their coefficients."""
    pieces = THEORIES[theory].pieces(normal)
    commutative = theory in ("ring2", "cmonoid")
    out = {}
    for coeff, word in pieces:
        names = tuple(g.name for g in word.items)
        out[tuple(sorted(names)) if commutative else names] = coeff
    assert len(out) == len(pieces) and all(coeff for coeff, _ in pieces)
    return out


def _assert_exact(theory, expr):
    assert _pieces(theory, normalize_expr(theory, expr)) == direct_normal_form(theory, expr)


def test_normal_forms_equal_the_direct_expansion_on_the_criteria_expressions():
    """The 200 expressions of acceptance criteria 06 and 07, and those without
    negation in the rig."""
    rng = random.Random(2024)
    expressions = [random_expression(rng, ["a", "b", "c"], 6) for _ in range(200)]
    for expr in expressions:
        for theory in ("ring2", "ring3"):
            _assert_exact(theory, expr)
        if not _uses_negation(expr):
            _assert_exact("rig", expr)


@settings(max_examples=60, deadline=None)
@given(_exprs, _rig_exprs)
def test_normal_forms_equal_the_direct_expansion(expr, rig_expr):
    for theory in ("ring2", "ring3"):
        _assert_exact(theory, expr)
    _assert_exact("rig", rig_expr)


@pytest.mark.parametrize("theory", sorted(_PRODUCT_FACTORS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_equal_the_direct_expansion(theory, data):
    _assert_exact(theory, reduce(Mul, data.draw(_factors(theory))))


def test_a_hall_mutant_passes_the_matrix_oracle_and_fails_the_direct_one():
    """2x2 matrices satisfy Hall's identity [[x,y]^2, z] = 0, so a ring3 normal
    form off by the 8 words of [[a,b]^2, c] evaluates as the true one."""
    expr = parse_expr("(a+b)*(c-a) + 2*b", X)
    normal = normalize_expr("ring3", expr)
    commutator_squared = (("abab", 1), ("abba", -1), ("baab", -1), ("baba", 1))
    hall = [(Seq(tuple(map(Gen, w + "c"))), k) for w, k in commutator_squared]
    hall += [(Seq(tuple(map(Gen, "c" + w))), -k) for w, k in commutator_squared]
    mutant = IntComb(normal.pairs + tuple(hall))
    assert len(mutant.pairs) == len(normal.pairs) + 8
    rng = random.Random(37)
    for _ in range(50):
        assignment = {n: random_matrix(rng) for n in "abc"}
        assert eval_expr_matrix(expr, assignment) == eval_ring_nf_matrix(mutant, assignment)
    assert _pieces("ring3", normal) == direct_normal_form("ring3", expr)
    assert _pieces("ring3", mutant) != direct_normal_form("ring3", expr)
