"""Bounded exhaustive verification of monad laws, with failure witnesses."""

from functools import cache, partial

from .errors import DistlawError, ShapeMismatch
from .monads import _check_bound, _guard, _stream_stack
from .terms import Carrier, functions_between


class Witness:
    """One failing instance: which diagram, on what input, both leg values."""

    def __init__(self, check_id, input_term, left, right):
        self.check_id = check_id
        self.input = input_term
        self.left = left
        self.right = right

    def __repr__(self):
        return (f"Witness({self.check_id}: input={self.input}, "
                f"left={self.left}, right={self.right})")


class CheckReport:
    """Outcome of a suite of pointwise diagram comparisons."""

    def __init__(self, title, checked=0, witnesses=None, sections=None):
        self.title = title
        self.checked = checked
        self.witnesses = list(witnesses or ())
        self.sections = list(sections or ())

    @property
    def passed(self):
        return not self.witnesses and all(s.passed for s in self.sections)

    @property
    def verdict(self):
        """``FAIL`` on any witness, else ``EMPTY`` if a leaf checked nothing, else ``PASS``."""
        if not self.passed:
            return "FAIL"
        if not self.sections:
            return "PASS" if self.checked else "EMPTY"
        return "EMPTY" if any(s.verdict == "EMPTY" for s in self.sections) else "PASS"

    def total_checked(self):
        return self.checked + sum(s.total_checked() for s in self.sections)

    def all_witnesses(self):
        out = list(self.witnesses)
        for s in self.sections:
            out.extend(s.all_witnesses())
        return out

    def lines(self):
        """One deterministic report line per check, witnesses on failure."""
        out = []
        if not self.sections:
            line = f"CHECK {self.title} {self.verdict}"
            if self.witnesses:
                w = self.witnesses[0]
                line += f" witness={w.check_id}:{w.input}"
            out.append(line)
        else:
            for s in self.sections:
                out.extend(s.lines())
        return out

    def __repr__(self):
        return f"CheckReport({self.title}: {self.verdict}, {self.total_checked()} checked)"


def compare_all(inputs, sections):
    """Evaluate every section's two legs pointwise, reading ``inputs`` once.

    ``sections`` lists ``(check_id, left_leg, right_leg)``; the result
    is one report per section, in that order.  On each input every
    distinct leg object runs once, and its value, or the error it
    raised, counts in every section that holds it.  A leg that raises a
    package error agrees with no leg.
    """
    legs = list(dict.fromkeys(leg for _, *pair in sections for leg in pair))
    rows = [(check_id, legs.index(left), legs.index(right), [])
            for check_id, left, right in sections]
    checked = 0
    for t in inputs:
        checked += 1
        values, raised = [], ()  # raised: the positions of the legs that raised
        for leg in legs:
            try:
                values.append(leg(t))
            except DistlawError as exc:
                raised += (len(values),)
                values.append(f"error:{type(exc).__name__}")
        for check_id, i, j, witnesses in rows:
            if values[i] != values[j] or i in raised and j in raised:
                witnesses.append(Witness(check_id, t, values[i], values[j]))
    return [CheckReport(check_id, checked=checked, witnesses=witnesses)
            for check_id, _, _, witnesses in rows]


def compare(check_id, inputs, left_leg, right_leg):
    """One section of ``compare_all``: the left leg, then the right, on each input."""
    report, = compare_all(inputs, [(check_id, left_leg, right_leg)])
    return report


def _same(t):
    return t


def check_monad_laws(monad, carrier, bound):
    """Unit and associativity laws on every enumerated term within bound.

    Both unit laws read M(X) once, as it is generated, and share their
    identity leg; each other leg builds the doubly wrapped term and
    multiplies, so witnesses show the M(M(X)) input actually fed to
    mult.  Associativity runs over M(M(M(X))), streamed as it is read;
    its legs share one memo of ``mult`` on the M(M(X)) terms they meet,
    kept for this call only.
    """
    base = list(carrier)
    left_unit, right_unit = compare_all(monad.normal_forms(base, bound), [
        (f"monad[{monad.name}]:unit-left", lambda t: monad.mult(monad.unit(t)), _same),
        (f"monad[{monad.name}]:unit-right",
         lambda t: monad.mult(monad.fmap(monad.unit, t)), _same),
    ])
    # Recast unit witnesses to show the term handed to mult.
    for report, wrap in ((left_unit, monad.unit), (right_unit, lambda t: monad.fmap(monad.unit, t))):
        for w in report.witnesses:
            w.input = wrap(w.input)
    flat = cache(monad.mult)
    assoc = compare(
        f"monad[{monad.name}]:assoc",
        _stream_stack([monad, monad, monad], base, bound),
        lambda t: flat(monad.mult(t)),
        lambda t: flat(monad.fmap(flat, t)),
    )
    return CheckReport(f"monad-laws[{monad.name}]", sections=[left_unit, right_unit, assoc])


def _naturality(carrier, bound, rows):
    """Naturality sections: one per map out of the carrier and per row.

    A term carrier (a ``Carrier``) maps into each standard carrier of
    size one to three; other carriers, such as globular sets, have no
    maps, and their inputs are never enumerated.  A row
    ``(check_id, stack, left_leg, right_leg)`` streams the elements of
    ``stack`` over the carrier within ``bound`` once, and runs on each
    the legs ``left_leg(fn)`` and ``right_leg(fn)`` of every map ``fn``,
    so the legs of all maps, with any tables they keep, live together
    for that row.  Sections come map by map, each map's rows in order;
    their ids end in ``#k`` for the k-th map.  The maps count against
    ``ENUM_CEILING``.
    """
    if not isinstance(carrier, Carrier):
        return []
    _guard(sum(size ** len(carrier) for size in (1, 2, 3)), "naturality maps")
    maps = [f.__getitem__ for size in (1, 2, 3)
            for f in functions_between(carrier, Carrier.of_size(size))]
    per_row = [compare_all(_stream_stack(stack, list(carrier), bound),
                           [(f"{check_id}#{idx}", left(fn), right(fn))
                            for idx, fn in enumerate(maps)])
               for check_id, stack, left, right in rows]
    return [report for per_map in zip(*per_row) for report in per_map]


def check_monad_naturality(monad, carrier, bound):
    """Unit and mult are natural in the carrier, a term ``Carrier``: two
    rows of ``_naturality``, over X and over M(M(X)).  The mult right leg
    at each map ``fn`` memoises its inner ``monad.fmap(fn, .)``, the
    per-check rule of ``series.check_distlaw``.
    """
    _check_bound(bound)
    if not isinstance(carrier, Carrier):
        raise ShapeMismatch(f"naturality[{monad.name}] needs a term Carrier, "
                            f"not {type(carrier).__name__}")
    return CheckReport(f"naturality[{monad.name}]", sections=_naturality(carrier, bound, [
        (f"naturality[{monad.name}]:unit", [],
         lambda fn: lambda x: monad.fmap(fn, monad.unit(x)),
         lambda fn: lambda x: monad.unit(fn(x))),
        (f"naturality[{monad.name}]:mult", [monad, monad],
         lambda fn: lambda t: monad.fmap(fn, monad.mult(t)),
         lambda fn: lambda t, memo=cache(partial(monad.fmap, fn)): monad.mult(monad.fmap(memo, t))),
    ]))
