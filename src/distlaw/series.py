"""Distributive series of monads: pairwise laws, Yang-Baxter, composition.

A series is an ordered list of monads T_1..T_n with one law
``T_i∘T_j => T_j∘T_i`` per pair i > j.  When every triple satisfies the
Yang-Baxter hexagon, any binary bracketing (a *route*) of T_1..T_n
yields a composite monad, and all routes yield the same one; the
checkers here verify each ingredient and the route independence itself
by bounded exhaustive evaluation.
"""

from .checks import CheckReport, compare, merge_reports
from .errors import BoundTooLarge, IndexOrder, ShapeMismatch, SplitOutOfRange
from .laws import DistLaw
from .monads import MonadSpec, enum_stack
from .terms import Carrier, functions_between


class CompositeMonad(MonadSpec):
    """The canonical monad on ``outer∘inner`` induced by a distributive law.

    ``law`` must transform inner∘outer into outer∘inner.  Multiplication
    pushes the middle inner layer out through the law, then multiplies
    both layers; the unit is the composite of the units.
    """

    def __init__(self, outer, inner, law):
        self.outer = outer
        self.inner = inner
        self.law = law
        self.name = f"({outer.name}.{inner.name})"

    def unit(self, x):
        return self.outer.unit(self.inner.unit(x))

    def fmap(self, f, t):
        return self.outer.fmap(lambda s: self.inner.fmap(f, s), t)

    def mult(self, t):
        swapped = self.outer.fmap(self.law.transform, t)
        flat_outer = self.outer.mult(swapped)
        return self.outer.fmap(self.inner.mult, flat_outer)

    def enumerate(self, domain, bound, ceiling=None):
        return self.outer.enumerate(self.inner.enumerate(domain, bound, ceiling),
                                    bound, ceiling)


def compose_pair(s_monad, t_monad, law):
    """The composite monad on ``t_monad∘s_monad`` given law S∘T => T∘S."""
    if law.s_monad is not s_monad or law.t_monad is not t_monad:
        raise ShapeMismatch(
            f"law {law.name} connects {law.s_monad.name}/{law.t_monad.name}, "
            f"not {s_monad.name}/{t_monad.name}")
    return CompositeMonad(outer=t_monad, inner=s_monad, law=law)


class DistributiveSeries:
    """Ordered monads plus one distributive law per out-of-order pair."""

    def __init__(self, name, monads, laws):
        self.name = name
        self.monads = list(monads)
        self.laws = dict(laws)
        n = len(self.monads)
        for i in range(2, n + 1):
            for j in range(1, i):
                if (i, j) not in self.laws:
                    raise ShapeMismatch(f"series {name}: missing law for pair ({i},{j})")
                law = self.laws[(i, j)]
                if law.s_monad is not self.monads[i - 1] or law.t_monad is not self.monads[j - 1]:
                    raise ShapeMismatch(
                        f"series {name}: law {law.name} does not match positions ({i},{j})")

    def __len__(self):
        return len(self.monads)

    def monad(self, i):
        return self.monads[i - 1]

    def law(self, i, j):
        if not i > j:
            raise IndexOrder(f"series laws are indexed with i > j, got ({i},{j})")
        return self.laws[(i, j)]

    def __repr__(self):
        return f"<series {self.name}: {[m.name for m in self.monads]}>"


def check_distlaw(law, carrier, bound, naturality=True):
    """All four coherence diagrams of a distributive law, plus naturality.

    The two triangles run over every enumerated T(X) and S(X) term, the
    two pentagons over every S(S(T(X))) and S(T(T(X))) term within the
    bound.  Naturality is spot-checked against every function from the
    carrier into the standard carriers of size one to three.
    """
    S, T = law.s_monad, law.t_monad
    base = list(carrier)
    sections = [
        compare(
            f"distlaw[{law.name}]:unit-S",
            T.enumerate(base, bound),
            lambda t: law.transform(S.unit(t)),
            lambda t: T.fmap(S.unit, t),
        ),
        compare(
            f"distlaw[{law.name}]:mult-S",
            enum_stack([S, S, T], base, bound),
            lambda c: law.transform(S.mult(c)),
            lambda c: T.fmap(S.mult, law.transform(S.fmap(law.transform, c))),
        ),
        compare(
            f"distlaw[{law.name}]:unit-T",
            S.enumerate(base, bound),
            lambda s: law.transform(S.fmap(T.unit, s)),
            lambda s: T.unit(s),
        ),
        compare(
            f"distlaw[{law.name}]:mult-T",
            enum_stack([S, T, T], base, bound),
            lambda c: law.transform(S.fmap(T.mult, c)),
            lambda c: T.mult(T.fmap(law.transform, law.transform(c))),
        ),
    ]
    if naturality:
        inputs = enum_stack([S, T], base, bound)
        idx = 0
        for k in (1, 2, 3):
            target = Carrier.of_size(k)
            for f in functions_between(Carrier(c.name for c in base), target):
                fn = lambda x, f=f: f[x]
                sections.append(compare(
                    f"distlaw[{law.name}]:naturality#{idx}",
                    inputs,
                    lambda c, fn=fn: law.transform(S.fmap(lambda t: T.fmap(fn, t), c)),
                    lambda c, fn=fn: T.fmap(lambda s: S.fmap(fn, s), law.transform(c)),
                ))
                idx += 1
    return merge_reports(f"distlaw[{law.name}]", sections)


def check_yang_baxter(series, i, j, k, carrier, bound):
    """Both hexagon paths agree on every enumerated T_iT_jT_k(X) term."""
    if not i > j > k:
        raise IndexOrder(f"need i > j > k, got ({i},{j},{k})")
    Ti, Tj, Tk = series.monad(i), series.monad(j), series.monad(k)
    lam_ij, lam_ik, lam_jk = series.law(i, j), series.law(i, k), series.law(j, k)
    inputs = enum_stack([Ti, Tj, Tk], list(carrier), bound)

    def upper(c):
        step = lam_ij.transform(c)
        step = Tj.fmap(lam_ik.transform, step)
        return lam_jk.transform(step)

    def lower(c):
        step = Ti.fmap(lam_jk.transform, c)
        step = lam_ik.transform(step)
        return Tk.fmap(lam_ij.transform, step)

    return compare(f"yang-baxter[{series.name}]({i},{j},{k})", inputs, upper, lower)


def validate_series(series, carrier, bound, naturality=True):
    """Monad laws for every member, every pairwise law, every hexagon."""
    from .checks import check_monad_laws
    n = len(series)
    sections = [check_monad_laws(m, carrier, bound) for m in series.monads]
    for i in range(2, n + 1):
        for j in range(1, i):
            sections.append(check_distlaw(series.law(i, j), carrier, bound,
                                          naturality=naturality))
    for i in range(3, n + 1):
        for j in range(2, i):
            for k in range(1, j):
                sections.append(check_yang_baxter(series, i, j, k, carrier, bound))
    return merge_reports(f"series[{series.name}]", sections)


def _apply_at_depth(outer_monads, fn, term):
    if not outer_monads:
        return fn(term)
    head = outer_monads[0]
    rest = outer_monads[1:]
    return head.fmap(lambda sub: _apply_at_depth(rest, fn, sub), term)


def _block_transform(series, upper, lower):
    """Compose pairwise laws into the block swap (upper..)(lower..) => (lower..)(upper..).

    The layer stack starts as upper followed by lower (outermost first).
    One adjacent transposition at a time, the smallest-index layer is
    bubbled outward; each transposition is a single pairwise law applied
    under the current outer layers.  Any transposition order gives the
    same map once Yang-Baxter holds; this one is fixed for determinism.
    """
    current = list(upper) + list(lower)
    steps = []
    for pos in range(len(current)):
        j = min(range(pos, len(current)), key=lambda idx: current[idx])
        for m in range(j, pos, -1):
            p, q = current[m - 1], current[m]
            outer = tuple(series.monad(r) for r in current[:m - 1])
            steps.append((outer, series.law(p, q).transform))
            current[m - 1], current[m] = q, p

    def transform(term):
        for outer, fn in steps:
            term = _apply_at_depth(outer, fn, term)
        return term

    return transform


def _left_comb(a, b):
    """The left-bracketed route over the leaves a..b."""
    route = a
    for k in range(a + 1, b + 1):
        route = (route, k)
    return route


def compose_range(series, a, b):
    """Composite monad of the contiguous block T_a..T_b, left bracketing."""
    return _compose_route(series, _left_comb(a, b))[0]


def derive_block_law(series, split):
    """The induced law (T_{i+1}..T_n)(T_1..T_i) => (T_1..T_i)(T_{i+1}..T_n)."""
    n = len(series)
    if not 1 <= split < n:
        raise SplitOutOfRange(f"split must be in 1..{n - 1}, got {split}")
    return _compose_route(series, (_left_comb(1, split), _left_comb(split + 1, n)))[0].law


def route_leaves(route):
    if isinstance(route, int):
        return [route]
    left, right = route
    return route_leaves(left) + route_leaves(right)


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
    """Parse a bracketing like ``((1,2),3)`` into nested tuples."""
    text = text.replace(" ", "")
    pos = 0

    def node():
        nonlocal pos
        if pos < len(text) and text[pos] == "(":
            pos += 1
            left = node()
            if pos >= len(text) or text[pos] != ",":
                raise ValueError(f"expected ',' at {pos} in route {text!r}")
            pos += 1
            right = node()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError(f"expected ')' at {pos} in route {text!r}")
            pos += 1
            return (left, right)
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"expected a leaf index at {pos} in route {text!r}")
        return int(text[start:pos])

    route = node()
    if pos != len(text):
        raise ValueError(f"trailing characters at {pos} in route {text!r}")
    return route


def _compose_route(series, node):
    """Composite monad of a route's blocks, with the first and last leaf it covers."""
    if isinstance(node, int):
        if not 1 <= node <= len(series):
            raise ShapeMismatch(f"route leaf {node} out of range")
        return series.monad(node), node, node
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
            _block_transform(series, list(range(ra, rb + 1)), list(range(la, lb + 1))))
    return CompositeMonad(outer=lmonad, inner=rmonad, law=law), la, rb


def compose_series(series, route):
    """Composite monad of the whole series along the given bracketing."""
    leaves = route_leaves(route)
    if leaves != list(range(1, len(series) + 1)):
        raise ShapeMismatch(f"route leaves {leaves} must be 1..{len(series)} in order")
    return _compose_route(series, route)[0]


def check_route_independence(series, carrier, bound, max_n=4):
    """Every bracketing induces the same multiplication, pointwise."""
    n = len(series)
    if n > max_n:
        raise BoundTooLarge(
            f"route comparison for n={n} exceeds the default limit {max_n}; "
            "raise max_n explicitly to override")
    return compare_routes(series, all_routes(n), carrier, bound)


def compare_routes(series, routes, carrier, bound):
    """The composite mult of each route against the first route's, pointwise.

    The inputs are all enumerated elements of the doubled composite
    within bound.
    """
    composites = [compose_series(series, r) for r in routes]
    inputs = enum_stack(series.monads + series.monads, list(carrier), bound)
    reference = composites[0]
    sections = []
    if len(routes) == 1:
        sections.append(CheckReport(
            f"routes[{series.name}]:single", checked=len(inputs)))
    for r, composite in zip(routes[1:], composites[1:]):
        sections.append(compare(
            f"routes[{series.name}]:{routes[0]}vs{r}".replace(" ", ""),
            inputs,
            reference.mult,
            composite.mult,
        ))
    return merge_reports(f"routes[{series.name}]", sections)
