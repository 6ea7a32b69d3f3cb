"""Executable monads on finite term domains.

A monad here is a concrete gadget: a functor action on terms (``fmap``),
a unit, a multiplication, and a bounded generator of its free normal
forms over any finite domain of terms (``normal_forms``), which
``enumerate`` lists.  The generator yields the normal forms whose
weight (``terms.weight``) is at most the bound, in (weight, structural
key) order; the empty collection and the adjoined constant weigh one
but are emitted at every bound, bound 0 included.  So for bounds of at
least one an enumeration, and an ``enum_stack``, is a prefix of the one
at the next bound.

Words, multisets, integer combinations and the strings of cells of
``globular`` all come from one bounded walk, ``_walks``, cheapest walks
first and, within one cost, in lexicographic order of steps: a word is
a walk that may step to any element, a multiset one that never steps
back, a combination one of (element, coefficient) steps over strictly
increasing elements, and a string of cells one whose next cell starts
where the last ends.  Words, multisets and combinations list their
steps in key order, so their walks come out in (weight, key) order and
are not sorted afterwards.  Each walk counts against ``ENUM_CEILING``
as it is yielded, so ``_stream_stack``, which generates a stack's top
layer as a diagram reads it, stops at the ceiling mid-check.

Each monad gives its normal forms as a ``Stream``: raw walks, a
``build`` that makes a normal form of one, and the exact number of
forms, which words, multisets and combinations count from the weights
of the domain without walking (``_count``), and a listed layer from its
list.  So a diagram can share a stream's positions among processes
before it reads any, and build only the forms it checks.
"""

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, islice
from math import comb
from operator import itemgetter

from .errors import BoundTooLarge, ShapeMismatch
from .terms import _KEY, Inj, IntComb, MSet, ONE, Seq, ZERO, weight

ENUM_CEILING = 10 ** 6
_FIRST = itemgetter(0)


def _by_weight(terms):
    """Terms sorted by (weight, key): the order of every enumeration."""
    return sorted(terms, key=lambda t: (weight(t), t.key))


class Stream:
    """A layer of normal forms, generated as it is read, and its size.

    ``walks`` yields one raw value per form, in enumeration order, and
    ``build`` makes the form of one (``None``: the value is the form).
    The stream is its own iterator over the forms and holds none it has
    yielded.  ``size()`` is the number of forms, counted without walking.
    """

    __slots__ = ("walks", "build", "size")

    def __init__(self, walks, build, size):
        self.walks, self.build, self.size = iter(walks), build, size

    def __iter__(self):
        return self

    def __next__(self):
        raw = next(self.walks)
        return raw if self.build is None else self.build(raw)

    def forms(self, share=0, shares=1):
        """The forms at the positions ``share`` mod ``shares``, built; the
        walks between them are taken and dropped unbuilt."""
        raws = self.walks if shares == 1 else islice(self.walks, share, None, shares)
        return raws if self.build is None else map(self.build, raws)


def _listed(forms):
    """A ``Stream`` of a layer already listed, sized by its list."""
    return Stream(forms, None, forms.__len__)


class MonadSpec:
    """Interface every concrete monad implements."""

    name = "?"

    def unit(self, x):
        raise NotImplementedError

    def mult(self, t):
        raise NotImplementedError

    def fmap(self, f, t):
        raise NotImplementedError

    def stream(self, domain, bound):
        """The normal forms over ``domain`` within ``bound``, in enumeration order, as a ``Stream``."""
        raise NotImplementedError

    def normal_forms(self, domain, bound):
        return self.stream(domain, bound).forms()

    def enumerate(self, domain, bound):
        return list(self.normal_forms(domain, bound))

    def size(self, domain, bound):
        """``len(enumerate(domain, bound))``, without walking the forms (see
        ``_count``).  It does not raise past ``ENUM_CEILING``, as the walk does."""
        return self.stream(domain, bound).size()

    def __repr__(self):
        return f"<monad {self.name}>"


def _check_bound(bound):
    if bound < 0:
        raise ValueError(f"the enumeration bound must be non-negative, got {bound}")


def _guard(count, what):
    """Stop an enumeration of ``what`` past ``ENUM_CEILING`` elements (read at call time)."""
    if count > ENUM_CEILING:
        raise BoundTooLarge(f"{what}: enumeration exceeds ceiling of {ENUM_CEILING} elements")


def _walks(starts, onward, bound, what, dearest):
    """Every nonempty walk whose cost is at most ``bound``: cheapest first
    and, within one cost, in lexicographic order of steps.

    A walk is a tuple of steps: its first is one of ``starts(r)`` and each
    next one is one of ``onward(last, r)``, where ``r`` is the budget the
    walk has left.  Both list ``(step, cost)`` pairs in step order, only
    those that cost at most ``r``.  Every step costs at least one and at
    most ``dearest``.  Each exact cost is walked depth first, in turn.
    Once ``dearest`` costs in a row have no walk, there is no costlier
    walk, since it would have a prefix among them.  A walk counts
    against ``ENUM_CEILING`` when it is yielded; past it the error names
    ``what``, the monad walked, and the bound.
    """
    what = f"{what} at bound {bound}"
    built = idle = 0
    for total in range(1, bound + 1):
        if idle >= dearest:
            return
        before = built
        walk = []
        stack = [(iter(starts(total)), total)]
        while stack:
            steps, budget = stack[-1]
            for x, cost in steps:
                if cost < budget:
                    walk.append(x)
                    stack.append((iter(onward(x, budget - cost)), budget - cost))
                    break
                built += 1
                _guard(built, what)  # a global, so a test can patch it
                yield (*walk, x)
            else:
                stack.pop()
                if walk:
                    walk.pop()
        idle = 0 if built > before else idle + 1


def _count(costs, bound, kind, extra):
    """How many walks ``_walks`` yields over elements of the given costs
    within ``bound``, plus ``extra``, the forms emitted beside the walks.

    The walks of each total cost are counted by a coefficient of the
    generating function of the ``kind`` of walk, over the histogram of
    the costs (Flajolet & Sedgewick, *Analytic Combinatorics*, ch. I):
    words ``1 / (1 - A(x))``, where ``A`` has ``a_w`` terms ``x^w``;
    multisets ``prod (1 - x^w)^-a_w``; combinations, whose elements take
    any nonzero coefficient, ``prod ((1 + x^w) / (1 - x^w))^a_w``.  The
    count of the words of one cost stops at ``sys.maxsize``, so that
    words at a large bound, whose number grows exponentially with it,
    make no huge integers; no stream that size could be walked.
    """
    weights = Counter(w for w in costs if w <= bound)
    series = [1] + [0] * bound
    if kind == "words":
        for n in range(1, bound + 1):
            series[n] = min(sum(a * series[n - w] for w, a in weights.items() if w <= n),
                            sys.maxsize)
        return sum(series) - 1 + extra
    for w, a in weights.items():
        if kind == "combinations":  # times (1 + x^w)^a, from the top down
            for n in range(bound, w - 1, -1):
                series[n] += sum(comb(a, k) * series[n - k * w] for k in range(1, min(a, n // w) + 1))
        for n in range(w, bound + 1):  # over (1 - x^w)^a, from the bottom up
            series[n] -= sum((-1) ** k * comb(a, k) * series[n - k * w]
                             for k in range(1, min(a, n // w) + 1))
    return sum(series) - 1 + extra


def _fits(steps, bound):
    """The key-ordered ``(step, cost)`` pairs that cost at most a budget, as a
    function of the budget, and the dearest cost within ``bound``; the lists
    are kept per budget up to that cost, past which they do not change."""
    steps = [s for s in steps if s[1] <= bound]
    dearest = max((cost for _, cost in steps), default=0)
    rows = [[s for s in steps if s[1] <= r] for r in range(dearest + 1)]
    return (lambda r: rows[min(r, dearest)]), dearest


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

    def stream(self, domain, bound):
        _check_bound(bound)
        steps = [(x, weight(x)) for x in sorted(domain, key=_KEY)]
        fits, dearest = _fits(steps, bound)
        walks = _walks(fits, lambda x, r: fits(r), bound, self.name, dearest)
        extra = 1 - self.nonempty
        return Stream(chain([()] * extra, walks), Seq,
                      lambda: _count([w for _, w in steps], bound, "words", extra))


class FreeSemigroup(FreeMonoid):
    """Nonempty words: associative multiplication with no unit."""

    name = "free-semigroup"
    nonempty = True


class FreeCommutativeMonoid(FreeCollection):
    """Multisets over the domain, including the empty one."""

    name = "free-commutative-monoid"
    shape = MSet

    def stream(self, domain, bound):
        """Walks over the positions of the key-sorted domain that never step back."""
        _check_bound(bound)
        domain = sorted(domain, key=_KEY)
        costs = [weight(x) for x in domain]
        fits, dearest = _fits(list(enumerate(costs)), bound)

        def onward(k, r):
            row = fits(r)
            return row[bisect_left(row, k, key=_FIRST):]

        walks = _walks(fits, onward, bound, self.name, dearest)
        extra = 1 - self.nonempty
        return Stream(chain([()] * extra, walks), lambda walk: MSet([domain[k] for k in walk]),
                      lambda: _count(costs, bound, "multisets", extra))


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

    def stream(self, domain, bound):
        """Walks over (position, coefficient) steps of the key-sorted domain,
        each at a later position: the order of a combination's key, where
        coefficients ascend, negative first.  The steps of a position are
        made as the walk reaches it, since their number grows with the
        budget; a walk starts as if after position -1."""
        _check_bound(bound)
        domain = sorted(domain, key=_KEY)
        costs = [weight(x) for x in domain]
        fits, _ = _fits(list(enumerate(costs)), bound)

        def onward(step, r):
            row = fits(r)
            return (((k, c), abs(c) * w) for k, w in row[bisect_right(row, step[0], key=_FIRST):]
                    for c in range(-(r // w), r // w + 1) if c)

        dearest = max((bound // w * w for _, w in fits(bound)), default=0)
        walks = _walks(lambda r: onward((-1, 0), r), onward, bound, self.name, dearest)
        return Stream(chain([()], walks), lambda walk: IntComb([(domain[k], c) for k, c in walk]),
                      lambda: _count(costs, bound, "combinations", 1))


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

    def stream(self, domain, bound):
        _check_bound(bound)
        out = [Inj(x) for x in domain if weight(x) <= bound]
        out.append(self.constant)
        _guard(len(out), f"{self.name} at bound {bound}")
        return _listed(_by_weight(out))


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

    def stream(self, domain, bound):
        _check_bound(bound)
        return _listed(_by_weight(x for x in domain if weight(x) <= bound))


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


def _stream_stack(monads, base, bound):
    """``enum_stack`` as a ``Stream``: the inner layers listed, the outermost generated as read."""
    layer = list(base)
    if not monads:
        return _listed(layer)
    for monad in reversed(monads[1:]):
        layer = monad.enumerate(layer, bound)
    return monads[0].stream(layer, bound)


def enum_stack(monads, base, bound):
    """Enumerate the composite functor ``monads[0] ∘ ... ∘ monads[-1]``.

    ``base`` is the innermost domain; each layer enumerates over the one
    below it with the same bound, so the result is every element of the
    composite within the weight bound.
    """
    return list(_stream_stack(monads, base, bound).forms())
