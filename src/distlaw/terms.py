"""Normal-form terms of free algebraic structures over finite carriers.

Every term is immutable and carries a precomputed structural key and
weight.  Structural equality of keys is the only equality used anywhere:
two terms denote the same free-algebra element iff they are equal.
Constructors canonicalise on the way in (multisets are sorted, integer
combinations out of key order are merged, zero coefficients dropped), so
a term is always in normal form.

The weight is the one measure of a term, and every enumeration bound is
a bound on it.  A generator and an adjoined constant weigh one, an
injection weighs what it injects, a word or multiset weighs the sum of
its items, and an integer combination weighs each item by the absolute
value of its coefficient; every structure weighs at least one, so the
empty word, the empty multiset and the zero combination weigh one and
every enumeration over nested domains stays finite.
"""

import gc
from functools import wraps
from itertools import product
from operator import attrgetter

from .errors import UnknownGenerator


class Keyed:
    """An immutable value compared by the key its ``_seal`` sets.

    Equal keys hash equal.  A structure hashes a shallow tuple of its tag,
    its own scalars and its children's cached hashes, never its nested
    key, which would walk the whole value on every construction.
    """

    __slots__ = ("_key", "_hash")

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Keyed) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return str(self)


def collector_paused(build):
    """Run ``build``, which makes terms or cells in bulk, with the cyclic
    garbage collector off.  Each is immutable and points only at values
    made before it, so none lies on a cycle.  A caller that turned the
    collector off keeps it off; else it is back on when ``build`` returns
    or raises, and collects the young objects if they are over threshold,
    so that the call, not the next one, pays for what it leaves.  As the
    collector's own trigger would, that collection takes the middle
    generation too when it is due, which ``gc.collect(0)`` never does.
    """
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
            count, threshold = gc.get_count(), gc.get_threshold()
            if count[0] > threshold[0]:
                gc.collect(1 if count[1] > threshold[1] else 0)
    return paused


class Term(Keyed):
    """Base class; each constructor seals its key, weight and hash eagerly."""

    __slots__ = ("_weight",)

    def _seal(self, key, weight, shallow=None):
        """Hash ``shallow`` (see ``Keyed``), or the key of a term with no children."""
        self._key = key
        self._weight = weight
        self._hash = hash(key if shallow is None else shallow)


_KEY = attrgetter("_key")


class Gen(Term):
    """A generator of the carrier."""

    __slots__ = ("name",)

    def __init__(self, name):
        assert isinstance(name, str) and name
        self.name = name
        self._seal(("g", name), 1)

    def __str__(self):
        return self.name


class One(Term):
    """The adjoined multiplicative unit (the point of a pointed set)."""

    __slots__ = ()

    def __init__(self):
        self._seal(("one",), 1)

    def __str__(self):
        return "1"


class Zero(Term):
    """The adjoined absorbing zero."""

    __slots__ = ()

    def __init__(self):
        self._seal(("zero",), 1)

    def __str__(self):
        return "0"


ONE = One()
ZERO = Zero()


class Inj(Term):
    """Coproduct injection of an element alongside an adjoined constant."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        assert isinstance(inner, Term)
        self.inner = inner
        self._seal(("i", inner._key), inner._weight, ("i", inner._hash))

    def __str__(self):
        return str(self.inner)


class _Collection(Term):
    """A word or a multiset: a tuple of items, keyed under a one-letter tag."""

    __slots__ = ("items",)

    def _seal_items(self, tag, items):
        """Check each item, build the key and the hash and sum the weight in one pass."""
        key = [tag]
        hashes = [tag]
        total = 0
        for t in items:
            assert isinstance(t, Term)
            key.append(t._key)
            hashes.append(t._hash)
            total += t._weight
        self.items = items
        self._seal(tuple(key), total or 1, tuple(hashes))

    def __len__(self):
        return len(self.items)

    def __str__(self):
        return self._brackets[0] + ".".join(str(t) for t in self.items) + self._brackets[1]


class Seq(_Collection):
    """A word: the free monoid / free semigroup shape.  Order significant."""

    __slots__ = ()
    _brackets = "()"

    def __init__(self, items):
        self._seal_items("s", tuple(items))


class MSet(_Collection):
    """A multiset, stored as a sorted tuple with repetitions."""

    __slots__ = ()
    _brackets = "{}"

    def __init__(self, items):
        self._seal_items("m", tuple(sorted(items, key=_KEY)))


class IntComb(Term):
    """A formal integer combination: sorted (term, coefficient) pairs.

    Pairs given in strictly increasing key order are taken as they come;
    any other input is merged: equal keys add up under the first term
    given with that key, and the result is sorted by key.  Zero
    coefficients are dropped either way, so equality of combinations is
    structural equality.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        pairs = tuple(pairs)
        last = ()  # below every key; None once a key is not above the one before
        for term, coeff in pairs:
            assert isinstance(term, Term) and isinstance(coeff, int)
            if last is not None:
                last = term._key if last < term._key else None
        if last is None:
            merged = {}
            for term, coeff in pairs:
                merged[term] = merged[term] + coeff if term in merged else coeff
            pairs = [(t, merged[t]) for t in sorted(merged, key=_KEY)]
        kept = []
        key = ["z"]
        hashes = ["z"]
        total = 0
        for t, c in pairs:
            if c:
                kept.append((t, c))
                key.append((t._key, c))
                hashes += (t._hash, 2 * c)  # hash(-1) == hash(-2); 2 * c avoids -1
                total += abs(c) * t._weight
        self.pairs = tuple(kept)
        self._seal(tuple(key), total or 1, tuple(hashes))

    def __len__(self):
        return len(self.pairs)

    def __str__(self):
        if not self.pairs:
            return "<0>"
        return "<" + " + ".join(f"{c}*{t}" for t, c in self.pairs) + ">"


def weight(term):
    """The measure every enumeration bound limits: at least one."""
    return term._weight


class Carrier:
    """An ordered finite set of named generators."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        self.names = names
        self._gens = tuple(Gen(n) for n in names)

    @classmethod
    def of_size(cls, k):
        """Carrier with generators a, b, c, ... (then a1, a2, ... past z)."""
        if k < 0:
            raise ValueError(f"a carrier cannot have {k} generators")
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        if k <= len(alphabet):
            return cls(alphabet[:k])
        return cls(list(alphabet) + [f"a{i}" for i in range(1, k - len(alphabet) + 1)])

    def gen(self, name):
        if name not in self.names:
            raise UnknownGenerator(f"unknown generator {name!r}; carrier is {list(self.names)}")
        return Gen(name)

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self._gens)

    def maps(self):
        """Every map into the standard carriers of sizes 1 to 3, as a lookup,
        in a fixed order; the maps count against ``ENUM_CEILING``."""
        from .monads import _guard
        _guard(sum(size ** len(self) for size in (1, 2, 3)), "naturality maps")
        return [dict(zip(self, images)).__getitem__ for size in (1, 2, 3)
                for images in product(Carrier.of_size(size), repeat=len(self))]

    def __repr__(self):
        return f"Carrier({list(self.names)})"
