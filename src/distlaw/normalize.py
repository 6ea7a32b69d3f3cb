"""Canonical normal forms for expressions, via composite-monad evaluation.

Each theory names a monad whose free normal forms are the canonical
forms; expressions are evaluated bottom-up by embedding every operator
application into the doubled monad and collapsing it with the actual
composite multiplication, so the distributive laws do all the rewriting.

Theories:

* ``monoid``   - words; ``*`` and ``1`` only.
* ``cmonoid``  - multisets; ``*`` and ``1`` only.
* ``ring2``    - integer combinations of commutative monomials.
* ``ring3``    - integer combinations of words (the empty word is 1): the
  free ring monad, composite of the three monads of ``RING3_SERIES``.
* ``rig``      - 0 or a positive sum of words: the free rig monad, composite
  of the four monads of ``RIG_SERIES``.  Embeddings follow the series' order.
"""

from collections import Counter
from itertools import groupby

from .errors import UnsupportedNode
from .expr import Add, IntLit, Mul, Neg, Var
from .laws import (LAW_PRODUCT_OVER_SUM_COMM, LAW_PRODUCT_OVER_SUM_RIG,
                   LAW_PRODUCT_OVER_SUM_WORDS, LAW_UNIT_ABSORPTION,
                   LAW_UNIT_INTO_SUM_RIG, LAW_UNIT_INTO_SUM_RING,
                   LAW_UNIT_PAST_ZERO, LAW_ZERO_ANNIHILATION, LAW_ZERO_IN_SUM)
from .monads import (ADJOIN_UNIT, ADJOIN_ZERO, FREE_ABELIAN_GROUP, FREE_COMM_MONOID,
                     FREE_COMM_SEMIGROUP, FREE_MONOID, FREE_SEMIGROUP, _guard)
from .series import DistributiveSeries, compose_series
from .terms import Gen, Inj, IntComb, MSet, ONE, Seq, ZERO, collector_paused

RING2_SERIES = DistributiveSeries("ring2", [FREE_ABELIAN_GROUP, FREE_COMM_MONOID],
                                  {(2, 1): LAW_PRODUCT_OVER_SUM_COMM})

RING3_SERIES = DistributiveSeries(
    "ring3",
    [FREE_ABELIAN_GROUP, ADJOIN_UNIT, FREE_SEMIGROUP],
    {
        (2, 1): LAW_UNIT_INTO_SUM_RING,
        (3, 1): LAW_PRODUCT_OVER_SUM_WORDS,
        (3, 2): LAW_UNIT_ABSORPTION,
    },
)

RIG_SERIES = DistributiveSeries(
    "rig",
    [ADJOIN_ZERO, FREE_COMM_SEMIGROUP, ADJOIN_UNIT, FREE_SEMIGROUP],
    {
        (2, 1): LAW_ZERO_IN_SUM,
        (3, 1): LAW_UNIT_PAST_ZERO,
        (3, 2): LAW_UNIT_INTO_SUM_RIG,
        (4, 1): LAW_ZERO_ANNIHILATION,
        (4, 2): LAW_PRODUCT_OVER_SUM_RIG,
        (4, 3): LAW_UNIT_ABSORPTION,
    },
)

SERIES = {s.name: s for s in (RING2_SERIES, RING3_SERIES, RIG_SERIES)}


class Theory:
    """One normal-form theory: a monad, its operator embeddings, how an
    evaluated term is finished, and how a finished normal form reads as
    (coefficient, word) pieces."""

    def __init__(self, name, monad, ops, pieces, finish=lambda t: t):
        self.name = name
        self.monad = monad
        self._ops = ops
        self.pieces = pieces
        self.finish = finish

    def op(self, kind, *args):
        embed = self._ops.get(kind)
        if embed is None:
            raise UnsupportedNode(f"theory {self.name!r} does not support {kind}")
        return embed(*args)


def _collection(name, monad):
    """Words or multisets: ``*`` and the literal 1 only."""
    empty = monad.shape(())

    def lit(k):
        if k != 1:
            raise UnsupportedNode(f"theory {name!r} does not support the literal {k}")
        return empty

    return Theory(name, monad, {"mul": lambda u, v: monad.mult(monad.shape((u, v))), "lit": lit},
                  pieces=lambda w: [(1, w)])


def _ring(name, ring, monomial, empty, finish=lambda t: t):
    """Integer combinations of monomials; the literal k is k times ``empty``."""
    return Theory(
        name, ring,
        {
            "mul": lambda u, v: ring.mult(IntComb(((monomial(u, v), 1),))),
            "add": lambda *us: ring.mult(IntComb(tuple((monomial(u), 1) for u in us))),
            "neg": lambda u: ring.mult(IntComb(((monomial(u), -1),))),
            "lit": lambda k: IntComb(((empty, k),)),
        },
        pieces=lambda t: [(c, m) for m, c in t.pairs], finish=finish)


def _unit_word(*us):
    return Inj(Seq(us))


def _word(unit_word):
    """A unit-extended word as a plain word: the unit is the empty word."""
    return Seq(()) if unit_word == ONE else unit_word.inner


def _summands(term):
    """The words of a rig term, with repeats; none for 0."""
    return () if term == ZERO else term.inner.items


def _rig_pieces(term):
    counts = Counter(_summands(term))
    return [(counts[w], w) for w in sorted(counts, key=lambda t: t.key)]


def _rig_lit(k):
    """The literal ``k`` as ``k`` copies of the unit, at most ``ENUM_CEILING`` of them."""
    _guard(k, f"rig literal {k}")
    return Inj(MSet((ONE,) * k)) if k else ZERO


def _make_theories():
    rig = compose_series(RIG_SERIES, (((1, 2), 3), 4))

    def rig_mul(u, v):
        """The product as one summand per pair of summands, at most ``ENUM_CEILING`` of them."""
        _guard(len(_summands(u)) * len(_summands(v)), "rig product")
        return rig.mult(Inj(MSet((_unit_word(u, v),))))

    theories = (
        _collection("monoid", FREE_MONOID),
        _collection("cmonoid", FREE_COMM_MONOID),
        _ring("ring2", compose_series(RING2_SERIES, (1, 2)), lambda *us: MSet(us), MSet(())),
        _ring("ring3", compose_series(RING3_SERIES, ((1, 2), 3)), _unit_word, ONE,
              finish=lambda t: FREE_ABELIAN_GROUP.fmap(_word, t)),
        Theory(
            "rig", rig,
            {
                "mul": rig_mul,
                "add": lambda *us: rig.mult(Inj(MSet(tuple(_unit_word(u) for u in us)))),
                "lit": _rig_lit,
            },
            pieces=_rig_pieces,
            finish=lambda t: ADJOIN_ZERO.fmap(lambda s: FREE_COMM_SEMIGROUP.fmap(_word, s), t)),
    )
    return {t.name: t for t in theories}


THEORIES = _make_theories()


def _theory(name):
    if name not in THEORIES:
        raise UnsupportedNode(f"unknown theory {name!r}")
    return THEORIES[name]


def _evaluate(theory, n):
    """The value of node ``n`` in ``theory``'s monad.  A module function, not
    a closure that calls itself, so that no call leaves a reference cycle."""
    # a long sum or product nests to the left: walk that spine in a loop; a run of
    # summands is one add, a run of factors a balanced, in-order tree of binary muls
    spine = []
    while isinstance(n, (Add, Mul)):
        spine.append(n)
        n = n.left
    if isinstance(n, Var):
        value = theory.monad.unit(Gen(n.name))
    elif isinstance(n, IntLit):
        value = theory.op("lit", n.value)
    elif isinstance(n, Neg):
        value = theory.op("neg", _evaluate(theory, n.arg))
    else:
        raise UnsupportedNode(f"unknown expression node {n!r}")
    for is_sum, run in groupby(reversed(spine), key=lambda op: isinstance(op, Add)):
        if is_sum:
            value = theory.op("add", value, *(_evaluate(theory, op.right) for op in run))
        else:
            factors = [value, *(_evaluate(theory, op.right) for op in run)]
            while len(factors) > 1:
                factors = [theory.op("mul", *factors[i:i + 2]) if i + 1 < len(factors)
                           else factors[i] for i in range(0, len(factors), 2)]
            value = factors[0]
    return value


@collector_paused
def normalize_expr(theory_name, node):
    """Evaluate an AST inside the theory's monad; return its normal form."""
    theory = _theory(theory_name)
    try:
        value = _evaluate(theory, node)
    except RecursionError:
        raise UnsupportedNode("expression nested too deeply") from None
    return theory.finish(value)


def abelianize(comb_over_words):
    """Sort each word of a ring3 normal form into a commutative monomial."""
    return IntComb(tuple((MSet(w.items), c) for w, c in comb_over_words.pairs))


def _format_word(items):
    if not items:
        return "1"
    return "*".join(str(g) for g in items)


def _format_signed_sum(pieces):
    """Render coefficient/monomial pieces as ``a - 2*b + c``."""
    if not pieces:
        return "0"
    out = []
    for idx, (coeff, mono) in enumerate(pieces):
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        else:
            body = mono if mag == 1 else f"{mag}*{mono}"
        if idx == 0:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(out)


def format_normal(theory_name, term):
    """Deterministic plain-text rendering of a theory's normal form."""
    pieces = _theory(theory_name).pieces(term)
    return _format_signed_sum([(c, _format_word(w.items)) for c, w in pieces])
