"""Executable monads on finite term domains.

A monad here is a concrete gadget: a functor action on terms (``fmap``),
a unit, a multiplication, and a bounded enumerator of its free normal
forms over any finite domain of terms.  The enumerator returns the
normal forms whose weight (``terms.weight``) is at most the bound,
sorted by (weight, structural key); the empty collection and the
adjoined constant weigh one but are emitted at every bound, bound 0
included.  So for bounds of at least one an enumeration, and an
``enum_stack``, is a prefix of the one at the next bound.

Words, multisets, integer combinations and the strings of cells of
``globular`` all come from one bounded walk, ``_walks``: a word is a
walk that may step to any element, a multiset one that never steps
back, and a string of cells one whose next cell starts where the last
ends.  Each walk counts against ``ENUM_CEILING`` as it is built.
"""

from itertools import chain

from .errors import BoundTooLarge, ShapeMismatch
from .terms import Inj, IntComb, MSet, ONE, Seq, ZERO, weight

ENUM_CEILING = 10 ** 6


def _by_weight(terms):
    """Terms sorted by (weight, key): the order of every enumeration."""
    return sorted(terms, key=lambda t: (weight(t), t.key))


class MonadSpec:
    """Interface every concrete monad implements."""

    name = "?"

    def unit(self, x):
        raise NotImplementedError

    def mult(self, t):
        raise NotImplementedError

    def fmap(self, f, t):
        raise NotImplementedError

    def enumerate(self, domain, bound):
        raise NotImplementedError

    def __repr__(self):
        return f"<monad {self.name}>"


def _check_bound(bound):
    if bound < 0:
        raise ValueError(f"the enumeration bound must be non-negative, got {bound}")


def _guard(count, what):
    """Stop an enumeration of ``what`` past ``ENUM_CEILING`` elements (read at call time)."""
    if count > ENUM_CEILING:
        raise BoundTooLarge(f"{what}: enumeration exceeds ceiling of {ENUM_CEILING} elements")


def _walks(starts, after, cost, bound, what):
    """Every nonempty walk whose cost is at most ``bound``, shortest walks first.

    A walk is a tuple of steps: its first is one of ``starts`` and each
    next one is one of ``after(last)``.  Both list their steps in
    non-decreasing ``cost``, so a scan stops at the first step that does
    not fit; every step costs at least one, so a walk at the bound is not
    extended.  A walk counts against ``ENUM_CEILING`` when it is built;
    past it the error names ``what``, the monad walked, and the bound.
    """
    what = f"{what} at bound {bound}"
    built = 0
    frontier = [((), 0, starts)]
    while frontier:
        grown = []
        for walk, used, steps in frontier:
            for x in steps:
                spent = used + cost(x)
                if spent > bound:
                    break
                built += 1
                _guard(built, what)  # a global, so a test can patch it
                walk_x = walk + (x,)
                yield walk_x
                if spent < bound:
                    grown.append((walk_x, spent, after(x)))
        frontier = grown


class FreeCollection(MonadSpec):
    """Finite collections over the domain, flattened by ``mult``.

    ``shape`` is the term class of one collection: ``Seq`` for words,
    ``MSet`` for multisets.  ``nonempty`` marks the semigroups, whose
    collections are never empty.
    """

    nonempty = False

    def unit(self, x):
        return self.shape((x,))

    def mult(self, t):
        shape = self.shape
        if not isinstance(t, shape):
            raise ShapeMismatch(f"{self.name}: mult expects a {shape.__name__}, got {t}")
        out = []
        for part in t.items:
            if not isinstance(part, shape):
                raise ShapeMismatch(f"{self.name}: inner factor {part} is not a {shape.__name__}")
            out.extend(part.items)
        if self.nonempty and not out:
            raise ShapeMismatch(f"{self.name}: flattening produced the empty {shape.__name__}")
        return shape(out)

    def fmap(self, f, t):
        if not isinstance(t, self.shape):
            raise ShapeMismatch(f"{self.name}: fmap expects a {self.shape.__name__}, got {t}")
        return self.shape(map(f, t.items))


class FreeMonoid(FreeCollection):
    """Words over the domain, including the empty word."""

    name = "free-monoid"
    shape = Seq

    def enumerate(self, domain, bound):
        _check_bound(bound)
        domain = _by_weight(domain)
        out = [] if self.nonempty else [Seq(())]
        out.extend(map(Seq, _walks(domain, lambda x: domain, weight, bound, self.name)))
        return _by_weight(out)


class FreeSemigroup(FreeMonoid):
    """Nonempty words: associative multiplication with no unit."""

    name = "free-semigroup"
    nonempty = True


class FreeCommutativeMonoid(FreeCollection):
    """Multisets over the domain, including the empty one."""

    name = "free-commutative-monoid"
    shape = MSet

    def enumerate(self, domain, bound):
        _check_bound(bound)
        domain = _by_weight(domain)
        walks = _walks(range(len(domain)), lambda k: range(k, len(domain)),
                       lambda k: weight(domain[k]), bound, self.name)
        out = [] if self.nonempty else [MSet(())]
        out.extend(MSet([domain[k] for k in walk]) for walk in walks)
        return _by_weight(out)


class FreeCommutativeSemigroup(FreeCommutativeMonoid):
    """Nonempty multisets: commutative addition with no unit."""

    name = "free-commutative-semigroup"
    nonempty = True


class FreeAbelianGroup(MonadSpec):
    """Finite integer combinations of domain elements."""

    name = "free-abelian-group"

    def unit(self, x):
        return IntComb(((x, 1),))

    def mult(self, t):
        if not isinstance(t, IntComb):
            raise ShapeMismatch(f"{self.name}: mult expects a combination of combinations, got {t}")
        pairs = []
        for inner, outer_coeff in t.pairs:
            if not isinstance(inner, IntComb):
                raise ShapeMismatch(f"{self.name}: inner term {inner} is not a combination")
            for x, c in inner.pairs:
                pairs.append((x, outer_coeff * c))
        return IntComb(pairs)

    def fmap(self, f, t):
        if not isinstance(t, IntComb):
            raise ShapeMismatch(f"{self.name}: fmap expects a combination, got {t}")
        return IntComb([(f(x), c) for x, c in t.pairs])

    def enumerate(self, domain, bound):
        """Signed multisets: ascending walks over (element, sign) steps that
        may repeat a step but never switch an element's sign."""
        _check_bound(bound)
        steps = [(x, s) for x in _by_weight(domain) for s in (1, -1)]
        walks = _walks(range(len(steps)),
                       lambda k: chain((k,), range(k + 2 - k % 2, len(steps))),
                       lambda k: weight(steps[k][0]), bound, self.name)
        out = [IntComb(())]
        out.extend(IntComb([steps[k] for k in walk]) for walk in walks)
        return _by_weight(out)


class AdjoinConstant(MonadSpec):
    """Adjoin one distinguished constant: X maps to X plus a point."""

    constant = ONE

    def unit(self, x):
        return Inj(x)

    def mult(self, t):
        if t == self.constant:
            return self.constant
        if isinstance(t, Inj):
            inner = t.inner
            if inner == self.constant or isinstance(inner, Inj):
                return inner
            raise ShapeMismatch(f"{self.name}: {inner} is not an element of an adjoined domain")
        raise ShapeMismatch(f"{self.name}: mult expects a doubly adjoined element, got {t}")

    def fmap(self, f, t):
        if t == self.constant:
            return self.constant
        if isinstance(t, Inj):
            return Inj(f(t.inner))
        raise ShapeMismatch(f"{self.name}: fmap expects an adjoined element, got {t}")

    def enumerate(self, domain, bound):
        _check_bound(bound)
        out = [Inj(x) for x in domain if weight(x) <= bound]
        out.append(self.constant)
        _guard(len(out), f"{self.name} at bound {bound}")
        return _by_weight(out)


class AdjoinUnit(AdjoinConstant):
    name = "adjoin-unit"
    constant = ONE


class AdjoinZero(AdjoinConstant):
    name = "adjoin-zero"
    constant = ZERO


class IdentityMonad(MonadSpec):
    """The identity functor with trivial unit and multiplication."""

    name = "identity"

    def unit(self, x):
        return x

    def mult(self, t):
        return t

    def fmap(self, f, t):
        return f(t)

    def enumerate(self, domain, bound):
        _check_bound(bound)
        return _by_weight(x for x in domain if weight(x) <= bound)


FREE_MONOID = FreeMonoid()
FREE_SEMIGROUP = FreeSemigroup()
FREE_COMM_MONOID = FreeCommutativeMonoid()
FREE_COMM_SEMIGROUP = FreeCommutativeSemigroup()
FREE_ABELIAN_GROUP = FreeAbelianGroup()
ADJOIN_UNIT = AdjoinUnit()
ADJOIN_ZERO = AdjoinZero()
IDENTITY = IdentityMonad()

ZOO = {
    m.name: m
    for m in (FREE_MONOID, FREE_SEMIGROUP, FREE_COMM_MONOID,
              FREE_COMM_SEMIGROUP, FREE_ABELIAN_GROUP, ADJOIN_UNIT, ADJOIN_ZERO)
}


def enum_stack(monads, base, bound):
    """Enumerate the composite functor ``monads[0] ∘ ... ∘ monads[-1]``.

    ``base`` is the innermost domain; each layer enumerates over the one
    below it with the same bound, so the result is every element of the
    composite within the weight bound.
    """
    domain = list(base)
    for monad in reversed(monads):
        domain = monad.enumerate(domain, bound)
    return domain
