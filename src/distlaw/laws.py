"""The distributive laws between the zoo monads.

A law ``S∘T => T∘S`` is a single term transformation, natural in the
leaves: it rewrites an S-structure of T-structures into a T-structure of
S-structures.  The registry below holds the nine laws used to assemble
ring and rig normalisers, built from three transforms:

* a product distributes over a sum (commutative products over integer
  sums, words over integer sums, words over positive sums),
* an adjoined constant passes out of a collection: the unit out of
  products and the zero out of sums are dropped, the zero absorbs
  products,
* an adjoined point distributes over any monad: the unit into integer
  and positive sums, and the unit past the adjoined zero.
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


def expand_product_of_sums(term, product_shape, sum_shape):
    """Multilinear expansion of a product whose factors are formal sums.

    Each factor offers its summands with their coefficients, a multiset
    summand counting one per occurrence; every row-major choice of one
    summand per factor yields one product, with the coefficients
    multiplied.
    """
    if not isinstance(term, product_shape):
        raise ShapeMismatch(f"product-over-sum: expected {product_shape.__name__}, got {term}")
    choice_lists = []
    for factor in term.items:
        if not isinstance(factor, sum_shape):
            raise ShapeMismatch(
                f"product-over-sum: factor {factor} is not a {sum_shape.__name__}")
        choice_lists.append(factor.pairs if sum_shape is IntComb
                            else [(x, 1) for x in factor.items])
    pairs = []
    for combo in cartesian(*choice_lists):
        coeff = 1
        for _, c in combo:
            coeff *= c
        pairs.append((product_shape(tuple(x for x, _ in combo)), coeff))
    return IntComb(pairs) if sum_shape is IntComb else MSet(x for x, _ in pairs)


def move_constant_out(term, collection, constant, absorbing):
    """Move an adjoined constant out of a collection of adjoined elements.

    A neutral constant is dropped, and a collection of nothing but the
    constant is the constant; an absorbing constant swallows the whole
    collection.
    """
    if not isinstance(term, collection):
        raise ShapeMismatch(f"{constant} out of {collection.__name__}: got {term}")
    kept = []
    for item in term.items:
        if item == constant:
            if absorbing:
                return constant
        elif isinstance(item, Inj):
            kept.append(item.inner)
        else:
            raise ShapeMismatch(f"{constant} out of {collection.__name__}: {item} is not adjoined")
    if kept or absorbing:
        return Inj(collection(kept))
    return constant


def embed_point(term, monad):
    """The point law over any monad: the adjoined unit becomes the monad's
    unit on it, and an injected structure is reinjected elementwise."""
    if term == ONE:
        return monad.unit(ONE)
    if isinstance(term, Inj):
        return monad.fmap(Inj, term.inner)
    raise ShapeMismatch(f"point-over-{monad.name}: {term} is not an adjoined element")


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
    "unit-absorption", FREE_SEMIGROUP, ADJOIN_UNIT,
    lambda t: move_constant_out(t, Seq, ONE, absorbing=False))

LAW_UNIT_INTO_SUM_RING = DistLaw(
    "unit-into-sum-ring", ADJOIN_UNIT, FREE_ABELIAN_GROUP,
    lambda t: embed_point(t, FREE_ABELIAN_GROUP))

LAW_UNIT_INTO_SUM_RIG = DistLaw(
    "unit-into-sum-rig", ADJOIN_UNIT, FREE_COMM_SEMIGROUP,
    lambda t: embed_point(t, FREE_COMM_SEMIGROUP))

LAW_ZERO_ANNIHILATION = DistLaw(
    "zero-annihilation", FREE_SEMIGROUP, ADJOIN_ZERO,
    lambda t: move_constant_out(t, Seq, ZERO, absorbing=True))

LAW_ZERO_IN_SUM = DistLaw(
    "zero-in-sum", FREE_COMM_SEMIGROUP, ADJOIN_ZERO,
    lambda t: move_constant_out(t, MSet, ZERO, absorbing=False))

LAW_UNIT_PAST_ZERO = DistLaw(
    "unit-past-zero", ADJOIN_UNIT, ADJOIN_ZERO,
    lambda t: embed_point(t, ADJOIN_ZERO))

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
