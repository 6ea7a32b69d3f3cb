"""Canonical normal forms for expressions, via composite-monad evaluation.

Each theory names a monad whose free normal forms are the canonical
forms; expressions are evaluated bottom-up by embedding every operator
application into the doubled monad and collapsing it with the actual
composite multiplication, so the distributive laws do all the rewriting.

Theories:

* ``monoid``   - words; ``*`` and ``1`` only.
* ``cmonoid``  - multisets; ``*`` and ``1`` only.
* ``ring2``    - integer combinations of commutative monomials.
* ``ring3``    - integer combinations of words (the empty word is 1).
* ``rig``      - 0 or a positive sum of words over the carrier.
"""

from collections import Counter
from itertools import groupby

from .errors import UnsupportedNode
from .expr import Add, IntLit, Mul, Neg, OneLit, Var, ZeroLit
from .monads import FREE_COMM_MONOID, FREE_MONOID
from .series import compose_series
from .terms import Gen, Inj, IntComb, MSet, ONE, Seq, ZERO
from .theories import RIG_SERIES, RING2_SERIES, RING3_SERIES


class Theory:
    """One normal-form theory: a monad plus operator embeddings."""

    def __init__(self, name, monad, ops, finish=None):
        self.name = name
        self.monad = monad
        self._ops = ops
        self._finish = finish or (lambda t: t)

    def op(self, kind, *args):
        embed = self._ops.get(kind)
        if embed is None:
            raise UnsupportedNode(f"theory {self.name!r} does not support {kind}")
        return embed(*args)

    def finish(self, term):
        return self._finish(term)


def _make_theories():
    ring2 = compose_series(RING2_SERIES, (1, 2))
    ring3 = compose_series(RING3_SERIES, ((1, 2), 3))
    rig = compose_series(RIG_SERIES, (((1, 2), 3), 4))

    def word(u):
        return Inj(Seq((u,)))

    theories = {
        "monoid": Theory(
            "monoid", FREE_MONOID,
            {
                "mul": lambda u, v: FREE_MONOID.mult(Seq((u, v))),
                "one": lambda: Seq(()),
            }),
        "cmonoid": Theory(
            "cmonoid", FREE_COMM_MONOID,
            {
                "mul": lambda u, v: FREE_COMM_MONOID.mult(MSet((u, v))),
                "one": lambda: MSet(()),
            }),
        "ring2": Theory(
            "ring2", ring2,
            {
                "mul": lambda u, v: ring2.mult(IntComb(((MSet((u, v)), 1),))),
                "add": lambda *us: ring2.mult(IntComb(tuple((MSet((u,)), 1) for u in us))),
                "neg": lambda u: ring2.mult(IntComb(((MSet((u,)), -1),))),
                "one": lambda: IntComb(((MSet(()), 1),)),
                "lit": lambda k: IntComb(((MSet(()), k),)),
                "zero": lambda: IntComb(()),
            }),
        "ring3": Theory(
            "ring3", ring3,
            {
                "mul": lambda u, v: ring3.mult(IntComb(((Inj(Seq((u, v))), 1),))),
                "add": lambda *us: ring3.mult(IntComb(tuple((word(u), 1) for u in us))),
                "neg": lambda u: ring3.mult(IntComb(((word(u), -1),))),
                "one": lambda: IntComb(((ONE, 1),)),
                "lit": lambda k: IntComb(((ONE, k),)),
                "zero": lambda: IntComb(()),
            },
            finish=collapse_unit_words),
        "rig": Theory(
            "rig", rig,
            {
                "mul": lambda u, v: rig.mult(Inj(MSet((Inj(Seq((u, v))),)))),
                "add": lambda *us: rig.mult(Inj(MSet(tuple(word(u) for u in us)))),
                "one": lambda: Inj(MSet((ONE,))),
                "lit": lambda k: Inj(MSet((ONE,) * k)),
                "zero": lambda: ZERO,
            },
            finish=collapse_rig),
    }
    return theories


def _unit_word_to_seq(item):
    if item == ONE:
        return Seq(())
    if isinstance(item, Inj) and isinstance(item.inner, Seq):
        return item.inner
    raise UnsupportedNode(f"not a unit-extended word: {item}")


def collapse_unit_words(term):
    """Rewrite a combination over unit-extended words as one over plain words."""
    return IntComb(tuple((_unit_word_to_seq(t), c) for t, c in term.pairs))


def collapse_rig(term):
    """Rewrite a rig normal form over plain words (zero stays zero)."""
    if term == ZERO:
        return ZERO
    return Inj(MSet(tuple(_unit_word_to_seq(t) for t in term.inner.items)))


THEORIES = _make_theories()


def normalize_expr(theory_name, node):
    """Evaluate an AST inside the theory's monad; return its normal form."""
    if theory_name not in THEORIES:
        raise UnsupportedNode(f"unknown theory {theory_name!r}")
    theory = THEORIES[theory_name]

    def eval_node(n):
        # a long sum or product nests to the left: walk that spine in a loop,
        # adding each run of summands in one step (products stay binary)
        spine = []
        while isinstance(n, (Add, Mul)):
            spine.append(n)
            n = n.left
        if isinstance(n, Var):
            value = theory.monad.unit(Gen(n.name))
        elif isinstance(n, OneLit):
            value = theory.op("one")
        elif isinstance(n, ZeroLit):
            value = theory.op("zero")
        elif isinstance(n, IntLit):
            value = theory.op("lit", n.value)
        elif isinstance(n, Neg):
            value = theory.op("neg", eval_node(n.arg))
        else:
            raise UnsupportedNode(f"unknown expression node {n!r}")
        for is_sum, run in groupby(reversed(spine), key=lambda op: isinstance(op, Add)):
            if is_sum:
                value = theory.op("add", value, *(eval_node(op.right) for op in run))
            else:
                for op in run:
                    value = theory.op("mul", value, eval_node(op.right))
        return value

    try:
        value = eval_node(node)
    except RecursionError:
        raise UnsupportedNode("expression nested too deeply") from None
    return theory.finish(value)


def abelianize(comb_over_words):
    """Sort each word of a ring3 normal form into a commutative monomial."""
    return IntComb(tuple((MSet(w.items), c) for w, c in comb_over_words.pairs))


def _format_word(items, empty="1"):
    if not items:
        return empty
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
    if theory_name in ("monoid", "cmonoid"):
        return _format_word(term.items)
    if theory_name in ("ring2", "ring3"):
        return _format_signed_sum([(c, _format_word(m.items)) for m, c in term.pairs])
    if theory_name == "rig":
        if term == ZERO:
            return "0"
        counts = Counter(term.inner.items)
        pieces = [(counts[w], _format_word(w.items)) for w in sorted(counts, key=lambda t: t.key)]
        return _format_signed_sum(pieces)
    raise UnsupportedNode(f"unknown theory {theory_name!r}")
