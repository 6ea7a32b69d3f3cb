"""The distributive laws between the zoo monads.

A law ``S∘T => T∘S`` is a single term transformation, natural in the
leaves: it rewrites an S-structure of T-structures into a T-structure of
S-structures.  The registry below holds the nine laws used to assemble
ring and rig normalisers:

* products distribute over sums (three variants: commutative products
  over integer sums, words over integer sums, words over positive sums),
* an adjoined unit is deleted from products and embedded into sums,
* an adjoined zero annihilates products and is dropped from sums,
* the two adjoined constants slide past each other.
"""

from itertools import product as cartesian

from .errors import ShapeMismatch
from .monads import (ADJOIN_UNIT, ADJOIN_ZERO, FREE_ABELIAN_GROUP,
                     FREE_COMM_MONOID, FREE_COMM_SEMIGROUP, FREE_SEMIGROUP)
from .terms import Inj, IntComb, MSet, ONE, Seq, ZERO


class DistLaw:
    """A distributive law of ``s_monad`` over ``t_monad``."""

    def __init__(self, name, s_monad, t_monad, transform):
        self.name = name
        self.s_monad = s_monad
        self.t_monad = t_monad
        self.transform = transform

    def __repr__(self):
        return f"<law {self.name}: {self.s_monad.name}∘{self.t_monad.name} => swap>"


def _factors(term, shape, what):
    if not isinstance(term, shape):
        raise ShapeMismatch(f"{what}: expected {shape.__name__}, got {term}")
    return term.items


def expand_product_of_sums(term, product_shape, sum_shape):
    """Multilinear expansion of a product whose factors are formal sums.

    Each factor offers its summands (with integer coefficients for
    combinations, multiplicity one per occurrence for multisets); every
    row-major choice of one summand per factor yields one product, with
    the coefficients multiplied.
    """
    factors = _factors(term, product_shape, "product-over-sum")
    choice_lists = []
    for factor in factors:
        if sum_shape is IntComb:
            if not isinstance(factor, IntComb):
                raise ShapeMismatch(f"product-over-sum: factor {factor} is not a combination")
            choice_lists.append(list(factor.pairs))
        else:
            if not isinstance(factor, MSet):
                raise ShapeMismatch(f"product-over-sum: factor {factor} is not a multiset")
            choice_lists.append([(x, 1) for x in factor.items])
    if sum_shape is IntComb:
        pairs = []
        for combo in cartesian(*choice_lists):
            coeff = 1
            for _, c in combo:
                coeff *= c
            pairs.append((product_shape(tuple(x for x, _ in combo)), coeff))
        return IntComb(pairs)
    monomials = [product_shape(tuple(x for x, _ in combo))
                 for combo in cartesian(*choice_lists)]
    return MSet(monomials)


def absorb_unit(term):
    """Delete adjoined-unit factors from a word; an all-unit word is the unit."""
    remaining = []
    for factor in _factors(term, Seq, "unit-absorption"):
        if factor == ONE:
            continue
        if isinstance(factor, Inj):
            remaining.append(factor.inner)
        else:
            raise ShapeMismatch(f"unit-absorption: factor {factor} is not adjoined")
    if not remaining:
        return ONE
    return Inj(Seq(remaining))


def absorb_zero(term):
    """A word with an adjoined-zero factor collapses to zero."""
    remaining = []
    for factor in _factors(term, Seq, "zero-annihilation"):
        if factor == ZERO:
            return ZERO
        if isinstance(factor, Inj):
            remaining.append(factor.inner)
        else:
            raise ShapeMismatch(f"zero-annihilation: factor {factor} is not adjoined")
    return Inj(Seq(remaining))


def drop_zero_summands(term):
    """Delete adjoined-zero summands; an all-zero sum is zero."""
    remaining = []
    for summand in _factors(term, MSet, "zero-in-sum"):
        if summand == ZERO:
            continue
        if isinstance(summand, Inj):
            remaining.append(summand.inner)
        else:
            raise ShapeMismatch(f"zero-in-sum: summand {summand} is not adjoined")
    if not remaining:
        return ZERO
    return Inj(MSet(remaining))


def embed_point(term, sum_monad):
    """The adjoined unit becomes the one-term sum; sums are reinjected."""
    if term == ONE:
        return sum_monad.unit(ONE)
    if isinstance(term, Inj):
        return sum_monad.fmap(Inj, term.inner)
    raise ShapeMismatch(f"unit-into-sum: {term} is not an adjoined element")


def swap_constants(term):
    """Reassociate the two adjoined constants: a bijection on elements."""
    if term == ONE:
        return Inj(ONE)
    if isinstance(term, Inj):
        inner = term.inner
        if inner == ZERO:
            return ZERO
        if isinstance(inner, Inj):
            return Inj(Inj(inner.inner))
        raise ShapeMismatch(f"unit-past-zero: {inner} is not an adjoined element")
    raise ShapeMismatch(f"unit-past-zero: {term} is not an adjoined element")


LAW_PRODUCT_OVER_SUM_COMM = DistLaw(
    "product-over-sum-commutative", FREE_COMM_MONOID, FREE_ABELIAN_GROUP,
    lambda t: expand_product_of_sums(t, MSet, IntComb))

LAW_PRODUCT_OVER_SUM_WORDS = DistLaw(
    "product-over-sum-words", FREE_SEMIGROUP, FREE_ABELIAN_GROUP,
    lambda t: expand_product_of_sums(t, Seq, IntComb))

LAW_PRODUCT_OVER_SUM_RIG = DistLaw(
    "product-over-sum-rig", FREE_SEMIGROUP, FREE_COMM_SEMIGROUP,
    lambda t: expand_product_of_sums(t, Seq, MSet))

LAW_UNIT_ABSORPTION = DistLaw(
    "unit-absorption", FREE_SEMIGROUP, ADJOIN_UNIT, absorb_unit)

LAW_UNIT_INTO_SUM_RING = DistLaw(
    "unit-into-sum-ring", ADJOIN_UNIT, FREE_ABELIAN_GROUP,
    lambda t: embed_point(t, FREE_ABELIAN_GROUP))

LAW_UNIT_INTO_SUM_RIG = DistLaw(
    "unit-into-sum-rig", ADJOIN_UNIT, FREE_COMM_SEMIGROUP,
    lambda t: embed_point(t, FREE_COMM_SEMIGROUP))

LAW_ZERO_ANNIHILATION = DistLaw(
    "zero-annihilation", FREE_SEMIGROUP, ADJOIN_ZERO, absorb_zero)

LAW_ZERO_IN_SUM = DistLaw(
    "zero-in-sum", FREE_COMM_SEMIGROUP, ADJOIN_ZERO, drop_zero_summands)

LAW_UNIT_PAST_ZERO = DistLaw(
    "unit-past-zero", ADJOIN_UNIT, ADJOIN_ZERO, swap_constants)

REGISTERED_LAWS = {
    law.name: law
    for law in (
        LAW_PRODUCT_OVER_SUM_COMM,
        LAW_PRODUCT_OVER_SUM_WORDS,
        LAW_PRODUCT_OVER_SUM_RIG,
        LAW_UNIT_ABSORPTION,
        LAW_UNIT_INTO_SUM_RING,
        LAW_UNIT_INTO_SUM_RIG,
        LAW_ZERO_ANNIHILATION,
        LAW_ZERO_IN_SUM,
        LAW_UNIT_PAST_ZERO,
    )
}
