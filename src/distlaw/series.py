"""Distributive series of monads: pairwise laws, Yang-Baxter, composition.

A series is an ordered list of monads T_1..T_n with one law
``T_i∘T_j => T_j∘T_i`` per pair i > j.  When every triple satisfies the
Yang-Baxter hexagon, any binary bracketing (a *route*) of T_1..T_n
yields a composite monad, and all routes yield the same one; the
checkers here verify each ingredient and the route independence itself
by bounded exhaustive evaluation.
"""

import ast
from functools import cache, partial

from . import monads
from .checks import CheckReport, _naturality, check_monad_laws, compare, compare_all
from .errors import IndexOrder, ShapeMismatch, SplitOutOfRange
from .laws import DistLaw
from .monads import MonadSpec, _stream_stack


class CompositeMonad(MonadSpec):
    """The canonical monad on T∘S induced by a distributive law S∘T => T∘S.

    The law names both monads: T is the outer one, S the inner one.
    Multiplication pushes the middle S layer out through the law, then
    multiplies both layers; the unit is the composite of the units.
    ``mult`` reads the law's transform and the inner ``mult`` from
    ``_swap`` and ``_inner_mult``, the plain maps unless a route check
    memoises them (``_memoised``).
    """

    def __init__(self, law):
        self.outer = law.t_monad
        self.inner = law.s_monad
        self.law = law
        self.name = f"({self.outer.name}.{self.inner.name})"
        self._swap, self._inner_mult = law.transform, self.inner.mult

    def unit(self, x):
        return self.outer.unit(self.inner.unit(x))

    def fmap(self, f, t):
        return self.outer.fmap(lambda s: self.inner.fmap(f, s), t)

    def mult(self, t):
        swapped = self.outer.fmap(self._swap, t)
        flat_outer = self.outer.mult(swapped)
        return self.outer.fmap(self._inner_mult, flat_outer)

    def stream(self, domain, bound):
        return self.outer.stream(self.inner.enumerate(domain, bound), bound)


class DistributiveSeries:
    """Ordered monads plus one distributive law per out-of-order pair."""

    def __init__(self, name, monads, laws):
        self.name = name
        self.monads = list(monads)
        self.laws = dict(laws)
        for i, j in self.pairs():
            if (i, j) not in self.laws:
                raise ShapeMismatch(f"series {name}: missing law for pair ({i},{j})")
            law = self.laws[(i, j)]
            if law.s_monad is not self.monads[i - 1] or law.t_monad is not self.monads[j - 1]:
                raise ShapeMismatch(
                    f"series {name}: law {law.name} does not match positions ({i},{j})")

    def __len__(self):
        return len(self.monads)

    def pairs(self):
        """The index pairs n >= i > j >= 1, one per law, in lexicographic order."""
        return [(i, j) for i in range(2, len(self) + 1) for j in range(1, i)]

    def triples(self):
        """The index triples n >= i > j > k >= 1, one per hexagon, in lexicographic order."""
        return [(i, j, k) for i, j in self.pairs() for k in range(1, j)]

    def monad(self, i):
        if not 1 <= i <= len(self):
            raise IndexOrder(f"series {self.name} has monads 1..{len(self)}, not {i}")
        return self.monads[i - 1]

    def law(self, i, j):
        if not len(self) >= i > j >= 1:
            raise IndexOrder(
                f"series laws are indexed with {len(self)} >= i > j >= 1, got ({i},{j})")
        return self.laws[(i, j)]

    def __repr__(self):
        return f"<series {self.name}: {[m.name for m in self.monads]}>"


def check_distlaw(law, carrier, bound):
    """All four coherence diagrams of a distributive law, plus naturality.

    Each diagram is a row ``(check_id, stack, left_leg, right_leg)``
    whose inputs, every element of ``stack`` over the carrier within the
    bound, stream as they are read: T(X) and S(X) for the triangles,
    S(S(T(X))) and S(T(T(X))) for the pentagons.  Naturality is one
    more row, over S(T(X)), with legs built per map; ``checks._naturality``
    runs it, and gives globular sets none.

    The per-check rule: a map applied to the layer just below a
    diagram's inputs meets the same arguments again and again across
    the inputs above them, so it is memoised there, in tables that live
    for this call only.  Here that is ``law.transform``, ``S.mult`` and
    ``T.mult`` on S(T(X)), T(T(X)) and S(S(X)), and, in the naturality
    legs at each map ``fn``, the inner ``T.fmap(fn, .)`` and
    ``S.fmap(fn, .)``.  ``check_monad_naturality``,
    ``check_yang_baxter`` (each law under a whiskering ``fmap``) and
    ``compare_routes`` (each pair law, shared by every route, and each
    block law and inner ``mult``) keep the same rule.  A map applied to a
    section's own input (the mult-T right leg's first transform) or to
    a deeper layer (the mult-S right leg's outer transform, on
    S(T(S(X)))) sees each argument about once and stays plain: a table
    there would only cost memory.
    """
    S, T = law.s_monad, law.t_monad
    swap, s_mult, t_mult = cache(law.transform), cache(S.mult), cache(T.mult)
    title = f"distlaw[{law.name}]"
    diagrams = [
        (f"{title}:unit-S", [T], lambda t: swap(S.unit(t)), lambda t: T.fmap(S.unit, t)),
        (f"{title}:mult-S", [S, S, T], lambda c: swap(S.mult(c)),
         lambda c: T.fmap(s_mult, law.transform(S.fmap(swap, c)))),
        (f"{title}:unit-T", [S], lambda s: swap(S.fmap(T.unit, s)), lambda s: T.unit(s)),
        (f"{title}:mult-T", [S, T, T], lambda c: swap(S.fmap(t_mult, c)),
         lambda c: T.mult(T.fmap(swap, law.transform(c)))),
    ]
    sections = [compare(check_id, _stream_stack(stack, list(carrier), bound), left, right)
                for check_id, stack, left, right in diagrams]
    sections += _naturality(carrier, bound, [(
        f"{title}:naturality", [S, T],
        lambda fn: lambda c, t_fn=cache(partial(T.fmap, fn)): swap(S.fmap(t_fn, c)),
        lambda fn: lambda c, s_fn=cache(partial(S.fmap, fn)): T.fmap(s_fn, swap(c)))])
    return CheckReport(title, sections=sections)


def check_yang_baxter(series, i, j, k, carrier, bound):
    """Both hexagon paths agree on every enumerated T_iT_jT_k(X) term, streamed.

    The per-check rule of ``check_distlaw``: ``Ti.fmap(λ_jk, .)``,
    ``Tj.fmap(λ_ik, .)`` and ``Tk.fmap(λ_ij, .)`` apply a law to the
    layer just below a whole term, so each memoises it in a table that
    lives for this call only.  The three transforms applied to a whole
    input or intermediate term stay plain.
    """
    if not i > j > k:
        raise IndexOrder(f"need i > j > k, got ({i},{j},{k})")
    Ti, Tj, Tk = series.monad(i), series.monad(j), series.monad(k)
    lam_ij, lam_ik, lam_jk = series.law(i, j), series.law(i, k), series.law(j, k)
    ij, ik, jk = cache(lam_ij.transform), cache(lam_ik.transform), cache(lam_jk.transform)
    inputs = _stream_stack([Ti, Tj, Tk], list(carrier), bound)

    def upper(c):
        return lam_jk.transform(Tj.fmap(ik, lam_ij.transform(c)))

    def lower(c):
        return Tk.fmap(ij, lam_ik.transform(Ti.fmap(jk, c)))

    return compare(f"yang-baxter[{series.name}]({i},{j},{k})", inputs, upper, lower)


def validate_series(series, carrier, bound):
    """Monad laws for every member, every pairwise law, every hexagon."""
    sections = [check_monad_laws(m, carrier, bound) for m in series.monads]
    sections += [check_distlaw(series.law(i, j), carrier, bound) for i, j in series.pairs()]
    sections += [check_yang_baxter(series, *t, carrier, bound) for t in series.triples()]
    return CheckReport(f"series[{series.name}]", sections=sections)


def _block_swap(series, upper, lower, umonad, lmonad):
    """The block law U∘L => L∘U between two adjacent routes, as a transform.

    ``upper`` and ``lower`` are the routes of U and L, ``umonad`` and
    ``lmonad`` their monads.  The law is built by recursion on the
    routes, moving one half of a block at a time: for U = U1∘U2, U2
    passes L under U1, then U1 passes L; for L = L1∘L2, U passes L1,
    then passes L2 under L1; two leaves swap by their pair law.  Each
    pair law is applied once.
    """
    if not isinstance(upper, int):
        inner = _block_swap(series, upper[1], lower, umonad.inner, lmonad)
        outer = _block_swap(series, upper[0], lower, umonad.outer, lmonad)
        return lambda t: outer(umonad.outer.fmap(inner, t))
    if not isinstance(lower, int):
        outer = _block_swap(series, upper, lower[0], umonad, lmonad.outer)
        inner = _block_swap(series, upper, lower[1], umonad, lmonad.inner)
        return lambda t: lmonad.outer.fmap(inner, outer(t))
    return series.law(upper, lower).transform


def _left_comb(a, b):
    """The left-bracketed route over the leaves a..b."""
    route = a
    for k in range(a + 1, b + 1):
        route = (route, k)
    return route


def derive_block_law(series, split):
    """The induced law (T_{i+1}..T_n)(T_1..T_i) => (T_1..T_i)(T_{i+1}..T_n)."""
    n = len(series)
    if not 1 <= split < n:
        raise SplitOutOfRange(f"split must be in 1..{n - 1}, got {split}")
    return _compose_route(series, (_left_comb(1, split), _left_comb(split + 1, n)))[0].law


def all_routes(n, lo=1):
    """All binary bracketings of the leaves lo..lo+n-1, in a fixed order."""
    if n == 1:
        return [lo]
    out = []
    for split in range(1, n):
        for left in all_routes(split, lo):
            for right in all_routes(n - split, lo + split):
                out.append((left, right))
    return out


def parse_route(text):
    """Parse a bracketing in Python tuple syntax, like ``((1,2),3)``, into nested pairs."""
    try:
        route = ast.literal_eval(text)
    except (SyntaxError, TypeError, ValueError) as exc:
        raise ValueError(f"route {text!r} is not a bracketing: {exc}") from None

    def check(node):
        if isinstance(node, tuple) and len(node) == 2:
            check(node[0])
            check(node[1])
        elif type(node) is not int or node < 0:
            raise ValueError(f"route {text!r}: {node!r} is neither a pair nor a leaf index")

    check(route)
    return route


def _compose_route(series, node):
    """Composite monad of a route's blocks, with the first and last leaf it covers."""
    if type(node) is int:
        return series.monad(node), node, node
    if not (isinstance(node, tuple) and len(node) == 2):
        raise ShapeMismatch(f"route node {node!r} is neither a pair nor a leaf index")
    left, right = node
    lmonad, la, lb = _compose_route(series, left)
    rmonad, ra, rb = _compose_route(series, right)
    if lb + 1 != ra:
        raise ShapeMismatch(f"route blocks {la}..{lb} and {ra}..{rb} are not adjacent")
    if la == lb and ra == rb:
        law = series.law(ra, la)
    else:
        law = DistLaw(
            f"{series.name}-block({ra}..{rb})({la}..{lb})",
            rmonad, lmonad,
            _block_swap(series, right, left, rmonad, lmonad))
    return CompositeMonad(law), la, rb


def compose_series(series, route):
    """Composite monad of the whole series along the given bracketing."""
    composite, first, last = _compose_route(series, route)
    if (first, last) != (1, len(series)):
        raise ShapeMismatch(f"route covers {first}..{last}, not 1..{len(series)}")
    return composite


def check_route_independence(series, carrier, bound):
    """Every bracketing induces the same multiplication, pointwise.

    A pass says only that the routes' multiplications agree on every
    checked input, not that the composite is a monad: ring3 with its
    unit law at (3,2) swapped for the other valid law of that pair
    passes, yet both composites fail associativity, and only the
    hexagon (3,2,1) of ``validate_series`` fails.
    """
    return compare_routes(series, all_routes(len(series)), carrier, bound)


def _memoised(composite):
    """A copy of a composite that memoises, at every level, its inner
    ``mult`` and, where it joins more than two leaves, its block law's
    transform, in tables owned by the copy.  Two leaves swap by their
    pair law, whose table ``compare_routes`` keeps."""
    if not isinstance(composite, CompositeMonad):
        return composite
    copy = CompositeMonad(composite.law)
    copy.outer, copy.inner = _memoised(composite.outer), _memoised(composite.inner)
    if isinstance(composite.outer, CompositeMonad) or isinstance(composite.inner, CompositeMonad):
        copy._swap = cache(composite.law.transform)
    copy._inner_mult = cache(copy.inner.mult)
    return copy


def compare_routes(series, routes, carrier, bound):
    """The composite mult of each route against the first route's, pointwise.

    The inputs are all enumerated elements of the doubled composite
    within bound, generated once and never held: the first route's
    ``mult`` runs once on each and counts in every section.  A single
    route compares nothing; its one ``single`` leaf counts the inputs
    by the stream's size, without walking them below ``ENUM_CEILING``.

    The per-check rule of ``check_distlaw``: each pair law's transform
    gets one table, shared by every route and every block law built
    from it, and each route is evaluated through its own ``_memoised``
    copy, with one table per block law and per inner ``mult``.  The
    tables live for this call only; the composites of
    ``compose_series`` keep their plain maps.
    """
    if not routes:
        raise ShapeMismatch(f"series {series.name}: no route to compare")
    shared = DistributiveSeries(series.name, series.monads, {
        pair: DistLaw(law.name, law.s_monad, law.t_monad, cache(law.transform))
        for pair, law in series.laws.items()})
    composites = [_memoised(compose_series(shared, r)) for r in routes]
    inputs = _stream_stack(series.monads + series.monads, list(carrier), bound)
    title = f"routes[{series.name}]"
    if len(routes) == 1:
        checked = inputs.size()
        if checked > monads.ENUM_CEILING:  # past it the walk raises, as reading would
            checked = sum(1 for _ in inputs)
        return CheckReport(title, sections=[CheckReport(f"{title}:single", checked=checked)])
    reference = composites[0].mult
    return CheckReport(title, sections=compare_all(inputs, [
        (f"{title}:{routes[0]}vs{r}".replace(" ", ""), reference, composite.mult)
        for r, composite in zip(routes[1:], composites[1:])]))
