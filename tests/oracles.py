"""Independent evaluators used as oracles against the normalisers.

The ring oracle interprets expressions and normal forms in the ring of
2x2 integer matrices (noncommutative, so word order matters); the rig
oracle interprets them in the two-element Boolean rig.  Both are written
directly against the arithmetic, never through the package's monads.
``left_fold_product`` is the plain evaluation order a normaliser's
products must agree with: one binary ``mul`` at a time, left to right.
The term oracles restate, plainly, what a constructor must build and
how many generators a term holds, ``count_stack`` counts a stack's
elements by the symbolic method, from the monads' names alone, and
``check_functoriality`` checks that a monad's ``fmap`` is a functor
along the maps ``functions_between`` lists.  ``paste`` evaluates a pasting
diagram of free n-category cells by composing them, never through the
composition monads or their interchange laws.  ``reference_boundary``
rebuilds a cell's boundary from its structure on every call, keeping
nothing, and ``reference_string`` states the key and hash a string cell
owes.  ``compare_by_section`` is the pointwise loop one section at a
time, and ``monad_laws_by_section``, ``run_by_section`` and
``compare_routes_by_section`` list their inputs and read them once per
section, as the checks did before they read each stream once.
``compare_within_table`` is the algebra checks' own loop from before
they ran through ``compare_all``.  ``non_globular_cells`` checks the globular axiom on engine
output through ``reference_boundary``.  ``reference_enumeration`` and
``reference_layers`` enumerate normal forms and strings of cells the
plain way: a breadth-first walk, then, for terms, a sort by (weight,
key).  ``string_counts`` counts strings of cells by the transfer-matrix
method, and ``direct_normal_form`` expands an expression into its
monomials and their coefficients with plain dicts.
"""

import math
import random
from functools import reduce
from itertools import product

from distlaw.checks import CheckReport, Row, Witness, compare_all
from distlaw.errors import DimensionError, DistlawError, ShapeMismatch, _OutOfTable
from distlaw.expr import Add, IntLit, Mul, Neg, Var
from distlaw.globular import GenCell, StringCell, _compose_nested, identity_cell
from distlaw.monads import (AdjoinConstant, FreeAbelianGroup, FreeCommutativeMonoid,
                            FreeMonoid, IdentityMonad, enum_stack)
from distlaw.series import compose_series
from distlaw.terms import Carrier, Gen, Inj, IntComb, MSet, Seq, ZERO, weight

MAT_ID = ((1, 0), (0, 1))
MAT_ZERO = ((0, 0), (0, 0))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2))
        for r in range(2))


def mat_scale(k, a):
    return tuple(tuple(k * x for x in row) for row in a)


def random_matrix(rng):
    return tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))


def eval_expr_matrix(node, assignment):
    if isinstance(node, Var):
        return assignment[node.name]
    if isinstance(node, IntLit):
        return mat_scale(node.value, MAT_ID)
    if isinstance(node, Neg):
        return mat_neg(eval_expr_matrix(node.arg, assignment))
    if isinstance(node, Add):
        return mat_add(eval_expr_matrix(node.left, assignment),
                       eval_expr_matrix(node.right, assignment))
    if isinstance(node, Mul):
        return mat_mul(eval_expr_matrix(node.left, assignment),
                       eval_expr_matrix(node.right, assignment))
    raise TypeError(node)


def eval_word_matrix(word, assignment):
    out = MAT_ID
    for g in word.items:
        out = mat_mul(out, assignment[g.name])
    return out


def eval_ring_nf_matrix(comb, assignment):
    """A combination of words: sum of coefficient-scaled word products."""
    out = MAT_ZERO
    for word, coeff in comb.pairs:
        out = mat_add(out, mat_scale(coeff, eval_word_matrix(word, assignment)))
    return out


def eval_ring2_nf_matrix(comb, assignment):
    """Commutative monomials evaluated with commuting assignments only."""
    out = MAT_ZERO
    for mono, coeff in comb.pairs:
        prod = MAT_ID
        for g in mono.items:
            prod = mat_mul(prod, assignment[g.name])
        out = mat_add(out, mat_scale(coeff, prod))
    return out


def eval_expr_bool(node, assignment):
    """The two-element rig: or as addition, and as multiplication."""
    if isinstance(node, Var):
        return assignment[node.name]
    if isinstance(node, IntLit):
        return 1 if node.value else 0
    if isinstance(node, Add):
        return eval_expr_bool(node.left, assignment) | eval_expr_bool(node.right, assignment)
    if isinstance(node, Mul):
        return eval_expr_bool(node.left, assignment) & eval_expr_bool(node.right, assignment)
    raise TypeError(node)


def eval_rig_nf_bool(term, assignment):
    if term == ZERO:
        return 0
    out = 0
    for word in term.inner.items:
        prod = 1
        for g in word.items:
            prod &= assignment[g.name]
        out |= prod
    return out


def random_expression(rng, names, max_leaves):
    """A random AST with at most ``max_leaves`` leaves, ring-compatible."""
    def build(budget):
        if budget == 1 or rng.random() < 0.25:
            kind = rng.randrange(4)
            if kind == 0:
                return Var(rng.choice(names)), 1
            if kind == 1:
                return IntLit(1), 1
            if kind == 2:
                return IntLit(0), 1
            return IntLit(rng.randint(2, 3)), 1
        if rng.random() < 0.2:
            inner, used = build(budget)
            return Neg(inner), used
        split = rng.randint(1, budget - 1)
        left, used_l = build(split)
        right, used_r = build(budget - split)
        ctor = Add if rng.random() < 0.5 else Mul
        return ctor(left, right), used_l + used_r

    node, _ = build(rng.randint(1, max_leaves))
    return node


def left_fold_product(theory, factors):
    """The finished product of AST ``factors`` in a ``normalize.Theory``.

    Each factor is evaluated through ``theory.op`` with one binary
    operation per node, and the factors are multiplied as a left fold of
    binary ``mul``: ``((f1 * f2) * f3) * ...``.
    """
    def value(node):
        if isinstance(node, Var):
            return theory.monad.unit(Gen(node.name))
        if isinstance(node, IntLit):
            return theory.op("lit", node.value)
        if isinstance(node, Neg):
            return theory.op("neg", value(node.arg))
        kind = {Add: "add", Mul: "mul"}[type(node)]
        return theory.op(kind, value(node.left), value(node.right))

    return theory.finish(reduce(lambda u, v: theory.op("mul", u, v), map(value, factors)))


def word_to_tuple(word):
    assert isinstance(word, Seq)
    return tuple(g.name for g in word.items)


def gen_count(term):
    """Generator occurrences in a term; adjoined constants count none."""
    if isinstance(term, Gen):
        return 1
    if isinstance(term, Inj):
        return gen_count(term.inner)
    if isinstance(term, IntComb):
        return sum(abs(c) * gen_count(t) for t, c in term.pairs)
    if isinstance(term, (Seq, MSet)):
        return sum(gen_count(t) for t in term.items)
    return 0


# How a monad, by name, counts its elements from its domain's weight series
# a_w: words are SEQ, multisets MSET, ∏(1 - x^w)^{-a_w}, and combinations give
# each element a nonzero coefficient, ∏(1 + 2x^w + 2x^{2w} + ...)^{a_w}, which is
# ∏((1 + x^w) / (1 - x^w))^{a_w}.  The flag is the element of weight 1 that every
# bound lists: an empty collection or the adjoined constant.
COUNT_RULES = {
    "free-monoid": ("seq", 1), "free-semigroup": ("seq", 0),
    "free-commutative-monoid": ("mset", 1), "free-commutative-semigroup": ("mset", 0),
    "free-abelian-group": ("comb", 1),
    "adjoin-unit": ("same", 1), "adjoin-zero": ("same", 1), "identity": ("same", 0),
}


def _times(p, q):
    """The product of two weight series, truncated at the length of ``p``."""
    out = [0] * len(p)
    for i, x in enumerate(p):
        for j in range(len(p) - i):
            out[i + j] += x * q[j]
    return out


def _spread(coeff, w, bound):
    """The series of ``coeff(k)`` at weight ``k * w``, truncated at ``bound``."""
    return [coeff(n // w) if n % w == 0 else 0 for n in range(bound + 1)]


def weight_series(names, generators, bound):
    """How many elements of each weight up to ``bound`` a stack of monads has.

    ``names`` are the monads' names, outermost first, and the base holds
    ``generators`` generators of weight 1.  Weight is additive, so each
    layer's series comes from the one below by the symbolic method
    (Flajolet & Sedgewick, *Analytic Combinatorics*, ch. I), with
    ``COUNT_RULES``.  Entry 0 is always 0.
    """
    below = [0] * (bound + 1)
    if bound:
        below[1] = generators
    for name in reversed(names):
        kind, extra = COUNT_RULES[name]
        if kind == "same":
            series = list(below)
        elif kind == "seq":
            series = [0] * (bound + 1)
            for n in range(1, bound + 1):
                series[n] = below[n] + sum(below[k] * series[n - k] for k in range(1, n))
        else:
            series = [1] + [0] * bound
            for w in range(1, bound + 1):
                a = below[w]
                if not a:
                    continue
                series = _times(series, _spread(lambda k: math.comb(a + k - 1, k), w, bound))
                if kind == "comb":
                    series = _times(series, _spread(lambda k: math.comb(a, k), w, bound))
            series[0] = 0
        if bound:
            series[1] += extra
        below = series
    return below


def count_stack(names, generators, bound):
    """``len(enum_stack(...))`` for the stack ``names`` over ``generators``
    generators: every element within the bound, and at bound 0 the top
    layer's empty collection or constant, which weighs 1."""
    if bound == 0:
        return COUNT_RULES[names[0]][1]
    return sum(weight_series(names, generators, bound))


def check_functoriality(monad, carrier, bound, function_pairs):
    """fmap preserves identities and composition on sampled functions."""
    terms = monad.enumerate(list(carrier), bound)
    sections = [(f"functor[{monad.name}]:identity",
                 lambda t: monad.fmap(lambda x: x, t), lambda t: t)]
    for idx, (f, g) in enumerate(function_pairs):
        sections.append((
            f"functor[{monad.name}]:compose#{idx}",
            lambda t, f=f, g=g: monad.fmap(lambda x: g[f[x]], t),
            lambda t, f=f, g=g: monad.fmap(lambda x: g[x], monad.fmap(lambda x: f[x], t)),
        ))
    return CheckReport(f"functoriality[{monad.name}]", sections=compare_all(terms, sections))


def compare_by_section(check_id, inputs, left_leg, right_leg):
    """One section's pointwise loop: the left leg, then the right, on each input."""
    witnesses = []
    checked = 0
    for t in inputs:
        checked += 1
        raised = 0
        try:
            lhs = left_leg(t)
        except DistlawError as exc:
            lhs, raised = f"error:{type(exc).__name__}: {exc}", 1
        try:
            rhs = right_leg(t)
        except DistlawError as exc:
            rhs, raised = f"error:{type(exc).__name__}: {exc}", raised + 1
        if lhs != rhs or raised == 2:
            witnesses.append(Witness(check_id, t, lhs, rhs))
    return CheckReport(check_id, checked=checked, witnesses=witnesses)


def compare_within_table(check_id, inputs, left_leg, right_leg):
    """One algebra diagram's pointwise loop: the left leg, then the right.

    An input whose first failed lookup lies beyond the table's bound
    (``_OutOfTable``) is skipped.  Once a leg raises any other package
    error, the input fails, and its witness keeps each leg's own value
    or error.
    """
    witnesses = []
    checked = 0
    for t in inputs:
        values, failed = [], False
        for leg in (left_leg, right_leg):
            try:
                values.append(leg(t))
            except DistlawError as exc:
                if isinstance(exc, _OutOfTable) and not failed:
                    break
                values.append(f"error:{type(exc).__name__}: {exc}")
                failed = True
        else:
            checked += 1
            if failed or values[0] != values[1]:
                witnesses.append(Witness(check_id, t, *values))
    return CheckReport(check_id, checked=checked, witnesses=witnesses)


def monad_laws_by_section(monad, carrier, bound):
    """``check_monad_laws`` with M(X) listed and read once per unit law."""
    base = list(carrier)
    level1 = monad.enumerate(base, bound)
    left_unit = compare_by_section(f"monad[{monad.name}]:unit-left", level1,
                                   lambda t: monad.mult(monad.unit(t)), lambda t: t)
    right_unit = compare_by_section(f"monad[{monad.name}]:unit-right", level1,
                                    lambda t: monad.mult(monad.fmap(monad.unit, t)),
                                    lambda t: t)
    for report, wrap in ((left_unit, monad.unit),
                         (right_unit, lambda t: monad.fmap(monad.unit, t))):
        for w in report.witnesses:
            w.input = wrap(w.input)
    assoc = compare_by_section(f"monad[{monad.name}]:assoc",
                               enum_stack([monad, monad, monad], base, bound),
                               lambda t: monad.mult(monad.mult(t)),
                               lambda t: monad.mult(monad.fmap(monad.mult, t)))
    return CheckReport(f"monad-laws[{monad.name}]", sections=[left_unit, right_unit, assoc])


def functions_between(src_carrier, dst_carrier):
    """All maps between two carriers, as dicts Gen -> Gen, in a fixed order."""
    src = tuple(src_carrier)
    return [dict(zip(src, images)) for images in product(dst_carrier, repeat=len(src))]


def run_by_section(rows, carrier, bound):
    """``checks.run`` with each row's inputs listed and read once per
    section: the plain rows in order, then the per-map rows map by map,
    over the maps of a term ``Carrier`` into sizes one to three; any
    other carrier has none."""
    rows = [Row(*row) for row in rows]
    maps = [f.__getitem__ for size in (1, 2, 3) if isinstance(carrier, Carrier)
            for f in functions_between(carrier, Carrier.of_size(size))]
    sections = [(row, row.check_id, row.left_leg, row.right_leg)
                for row in rows if not row.per_map]
    sections += [(row, f"{row.check_id}#{idx}", row.left_leg(fn), row.right_leg(fn))
                 for idx, fn in enumerate(maps) for row in rows if row.per_map]
    reports = []
    for row, check_id, left, right in sections:
        report = compare_by_section(check_id, enum_stack(row.stack, list(carrier), bound),
                                    left, right)
        for w in report.witnesses if row.shown is not None else ():
            w.input = row.shown(w.input)
        reports.append(report)
    return reports


def compare_routes_by_section(series, routes, carrier, bound):
    """``series.compare_routes`` with the inputs listed and read once per route,
    the first route's ``mult`` run again for each, through the plain
    composites of ``compose_series``: no table is shared with the check."""
    composites = [compose_series(series, r) for r in routes]
    inputs = enum_stack(series.monads + series.monads, list(carrier), bound)
    sections = []
    if len(routes) == 1:
        sections.append(CheckReport(f"routes[{series.name}]:single", checked=len(inputs)))
    for r, composite in zip(routes[1:], composites[1:]):
        sections.append(compare_by_section(
            f"routes[{series.name}]:{routes[0]}vs{r}".replace(" ", ""),
            inputs, composites[0].mult, composite.mult))
    return CheckReport(f"routes[{series.name}]", sections=sections)


def reference_normal_form(shape, inputs):
    """The ``(items or pairs, key, weight)`` a ``shape`` constructor owes.

    A word keeps its items in order and a multiset sorts them by key.  A
    combination adds the coefficients of equal keys under the first term
    seen with that key, drops zero sums and sorts by key.  A structure
    weighs the sum of its items, a coefficient scaling its term's weight
    by its absolute value, and at least one.  ``Inj`` takes one input.
    """
    if shape is Inj:
        return inputs, ("i", inputs.key), weight(inputs)
    if shape is IntComb:
        first, total = {}, {}
        for term, coeff in inputs:
            first.setdefault(term.key, term)
            total[term.key] = total.get(term.key, 0) + coeff
        pairs = tuple((first[k], total[k]) for k in sorted(total) if total[k] != 0)
        key = ("z",) + tuple((t.key, c) for t, c in pairs)
        return pairs, key, max(sum(abs(c) * weight(t) for t, c in pairs), 1)
    items = tuple(inputs)
    if shape is MSet:
        items = tuple(sorted(items, key=lambda t: t.key))
    key = ("s" if shape is Seq else "m",) + tuple(t.key for t in items)
    return items, key, max(sum(weight(t) for t in items), 1)


def paste(cell, n):
    """Evaluate an element of the doubled stack of ``composition_series(n)``.

    An m-cell of the stack is an outer string along 0 of outer strings
    along 1, and so on down to along ``m - 1``, whose entries are cells of
    the free n-category in nested normal form.  Each outer string is folded
    with ``_compose_nested`` along its own dimension, with no bound, from
    layer 0 inward; an empty one is the identity on its anchor, a cell of
    the free n-category, raised with ``identity_cell`` to the string's
    dimension.  (Power, "An n-categorical pasting theorem", 1991.)
    """
    def evaluate(c, layer):
        if layer == n or c.dim <= layer:
            return c
        if not c.entries:
            unit = c.anchor
            while unit.dim < c.dim:
                unit = identity_cell(unit)
            return unit
        return reduce(lambda a, b: _compose_nested(a, b, layer, math.inf),
                      [evaluate(e, layer + 1) for e in c.entries])

    return evaluate(cell, 0)


def reference_boundary(cell, side, d):
    """Iterated boundary of a cell down to dimension ``d`` (``d == dim`` is the cell).

    Recursive and rebuilt on every call: a generator's boundary is that of
    its source or target; a string's is taken entry by entry above its
    composition dimension, and at or below it from the first entry (the
    source) or the last (the target), or from the anchor when it is empty.
    """
    assert side in ("src", "tgt")
    if d > cell.dim:
        raise DimensionError(f"no dimension-{d} boundary of a {cell.dim}-cell")
    if d == cell.dim:
        return cell
    if isinstance(cell, GenCell):
        step = cell.src if side == "src" else cell.tgt
        return reference_boundary(step, side, d)
    if isinstance(cell, StringCell):
        i = cell.along
        if d > i:
            if not cell.entries:
                return StringCell(i, d, (), cell.anchor)
            return StringCell(i, d, tuple(reference_boundary(e, side, d) for e in cell.entries))
        if not cell.entries:
            return reference_boundary(cell.anchor, side, d)
        end = cell.entries[0] if side == "src" else cell.entries[-1]
        return reference_boundary(end, side, d)
    raise ShapeMismatch(f"not a cell: {cell!r}")


def non_globular_cells(gset):
    """The cells of dimension two or more at which ``s∘s = s∘t`` or ``t∘s = t∘t`` fails."""
    failing = []
    for m in range(2, gset.n + 1):
        for cell in gset.cells_at(m):
            s, t = reference_boundary(cell, "src", m - 1), reference_boundary(cell, "tgt", m - 1)
            if any(reference_boundary(s, side, m - 2) != reference_boundary(t, side, m - 2)
                   for side in ("src", "tgt")):
                failing.append(cell)
    return failing


def reference_string(along, dim, entries, anchor=None):
    """The ``(entries, key, hash)`` a ``StringCell`` owes.

    Its key nests its entries' keys in order, or its anchor's key when it
    is empty.  Its hash is that of a flat tuple of its tag, ``dim``,
    ``along`` and its entries' hashes (or ``"anchor"`` and the anchor's
    hash), as ``terms.Keyed`` prescribes.
    """
    entries = tuple(entries)
    if entries:
        return (entries, ("s", dim, along, tuple(e.key for e in entries)),
                hash(("s", dim, along) + tuple(hash(e) for e in entries)))
    return (entries, ("s", dim, along, ("anchor", anchor.key)),
            hash(("s", dim, along, "anchor", hash(anchor))))


def reference_walks(starts, after, cost, bound):
    """Every nonempty walk whose cost is at most ``bound``, breadth first.

    A walk's first step is one of ``starts`` and each next one is one of
    ``after(last)``; both list steps in non-decreasing ``cost``, and
    every step costs at least one.  Walks come out shortest first, each
    length in the order of the steps.
    """
    frontier = [((), 0, starts)]
    while frontier:
        grown = []
        for walk, used, steps in frontier:
            for x in steps:
                spent = used + cost(x)
                if spent > bound:
                    break
                yield walk + (x,)
                if spent < bound:
                    grown.append((walk + (x,), spent, after(x)))
        frontier = grown


def _by_weight(terms):
    return sorted(terms, key=lambda t: (weight(t), t.key))


def reference_enumeration(monad, domain, bound):
    """What ``monad.enumerate(domain, bound)`` owes, for the term monads.

    Words are walks that may step to any element, multisets walks that
    never step back, and combinations walks over (element, sign) steps
    that may repeat a step but never switch an element's sign; all are
    sorted by (weight, key) afterwards, the empty collection included.
    An adjoined constant joins the injections of the elements within
    the bound, and the identity keeps those elements, both sorted.
    """
    domain = _by_weight(domain)
    if isinstance(monad, FreeMonoid):
        out = [] if monad.nonempty else [Seq(())]
        out += map(Seq, reference_walks(domain, lambda x: domain, weight, bound))
    elif isinstance(monad, FreeCommutativeMonoid):
        walks = reference_walks(range(len(domain)), lambda k: range(k, len(domain)),
                                lambda k: weight(domain[k]), bound)
        out = [] if monad.nonempty else [MSet(())]
        out += (MSet([domain[k] for k in walk]) for walk in walks)
    elif isinstance(monad, FreeAbelianGroup):
        steps = [(x, s) for x in domain for s in (1, -1)]
        walks = reference_walks(range(len(steps)),
                                lambda k: [k] + list(range(k + 2 - k % 2, len(steps))),
                                lambda k: weight(steps[k][0]), bound)
        out = [IntComb(())]
        out += (IntComb([steps[k] for k in walk]) for walk in walks)
    elif isinstance(monad, AdjoinConstant):
        out = [Inj(x) for x in domain if weight(x) <= bound] + [monad.constant]
    elif isinstance(monad, IdentityMonad):
        out = [x for x in domain if weight(x) <= bound]
    else:
        raise ShapeMismatch(f"no reference enumeration for {monad!r}")
    return _by_weight(out)


def reference_layers(monad, carrier, bound):
    """The cell layers ``monad.apply(carrier, bound)`` owes, a list per dimension.

    Dimensions up to ``monad.i`` keep the carrier's cells; each higher
    one holds an empty string per ``i``-cell, then the breadth-first
    walks of up to ``bound`` cells in which each next cell starts, along
    ``i``, where the last one ends (``reference_boundary``).
    """
    i = monad.i
    layers = [[] for _ in range(monad.n + 1)]
    for cell in carrier:
        layers[cell.dim].append(cell)
    for m in range(i + 1, monad.n + 1):
        cells = layers[m]
        onward = lambda c, cells=cells: [
            d for d in cells if reference_boundary(d, "src", i) == reference_boundary(c, "tgt", i)]
        walks = reference_walks(cells, onward, lambda c: 1, bound)
        layers[m] = ([StringCell(i, m, (), a) for a in layers[i]]
                     + [StringCell(i, m, walk) for walk in walks])
    return layers


def _int_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def string_counts(carrier, i, m, bound):
    """How many strings of ``m``-cells along ``i`` there are of each length
    0..``bound``, by the transfer-matrix method (Stanley, *Enumerative
    Combinatorics* I, section 4.7).

    Take the graph whose vertices are the carrier's ``i``-cells and whose
    edges are its ``m``-cells, each from its ``i``-source to its
    ``i``-target (``reference_boundary``).  The strings of length ``L``
    are its walks of ``L`` edges, so their number is the sum of the
    entries of ``A**L``, ``A`` the adjacency matrix; at ``L = 0`` that
    is one empty string per ``i``-cell.
    """
    vertices = {c: k for k, c in enumerate(c for c in carrier if c.dim == i)}
    adjacency = [[0] * len(vertices) for _ in vertices]
    for c in carrier:
        if c.dim == m:
            adjacency[vertices[reference_boundary(c, "src", i)]][
                vertices[reference_boundary(c, "tgt", i)]] += 1
    power = [[int(r == c) for c in range(len(vertices))] for r in range(len(vertices))]
    counts = []
    for _ in range(bound + 1):
        counts.append(sum(map(sum, power)))
        power = _int_mat_mul(power, adjacency)
    return counts


# per theory: whether its monomials commute, take signs, and add up
_DIRECT = {"monoid": (False, False, False), "cmonoid": (True, False, False),
           "ring2": (True, True, True), "ring3": (False, True, True),
           "rig": (False, False, True)}


def direct_normal_form(theory, node):
    """An expression expanded into a dict from its monomials to their
    nonzero coefficients, with none of the package's monads or laws.

    A monomial is a tuple of generator names: a word, or a sorted tuple
    where the theory commutes.  ring3 maps words and ring2 sorted tuples
    to integers, rig maps words to positive counts (0 is the empty dict),
    and monoid and cmonoid give one word or one sorted tuple, with
    coefficient 1.  A node the theory lacks raises ``TypeError``.
    """
    commutative, signed, sums = _DIRECT[theory]

    def expand(n):
        if isinstance(n, Var):
            return {(n.name,): 1}
        if isinstance(n, IntLit) and (sums or n.value == 1):
            return {(): n.value} if n.value else {}
        if isinstance(n, Neg) and signed:
            return {w: -c for w, c in expand(n.arg).items()}
        out = {}
        if isinstance(n, Add) and sums:
            terms = [*expand(n.left).items(), *expand(n.right).items()]
        elif isinstance(n, Mul):
            terms = [(u + v, c * d) for (u, c), (v, d)
                     in product(expand(n.left).items(), expand(n.right).items())]
        else:
            raise TypeError(f"{theory} has no {n!r}")
        for w, c in terms:
            w = tuple(sorted(w)) if commutative else w
            out[w] = out.get(w, 0) + c
        return {w: c for w, c in out.items() if c}

    return expand(node)
