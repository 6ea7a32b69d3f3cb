"""Bounded exhaustive verification of monad laws, with failure witnesses.

Every check hands its pointwise diagrams, as rows, to one runner,
``run(rows, carrier, bound)``, the only code that reads a diagram's
inputs.  A row ``(check_id, stack, left_leg, right_leg)`` holds where
both legs agree on every element of the ``stack`` of monads over the
carrier within the bound.  A ``Row`` may also give ``shown``, the input
a witness shows, or set ``per_map``: its legs then take a map out of
the carrier (``carrier.maps()``), and it fills one section per map.
"""

import os
from collections import namedtuple
from functools import cache, partial
from itertools import chain, groupby, islice
from math import ceil, inf
from operator import itemgetter

from .errors import DistlawError, ShapeMismatch, _OutOfTable
from .monads import Stream, _check_bound, _stream_stack
from .terms import Carrier, collector_paused


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


@collector_paused
def compare_all(inputs, sections):
    """Evaluate every section's two legs pointwise, reading ``inputs`` once.

    ``sections`` lists ``(check_id, left_leg, right_leg)``; the result
    is one report per section, in that order.  On each input every
    distinct leg object runs once, in the order the sections name them,
    and its value counts in every section that holds it.  A leg that
    raises a package error takes the value ``error:<TypeName>: <message>``
    and agrees with no leg.  If the first leg to raise on an input raises
    ``_OutOfTable``, an algebra lookup beyond its bounded table, the input
    is skipped: it counts in no section.

    A long stream is shared among the CPUs this process may use.  It is
    long when the inputs before its last would make at least
    ``SPLIT_AFTER_CALLS`` leg calls: where there are CPUs to share, the
    loop first takes that many inputs and one more off ``inputs``, any
    iterable or, unbuilt, the raw walks of a ``monads.Stream``, and puts
    them back in front.  A long stream forks one worker per extra CPU
    before its first input, and each process, this one included, checks
    every W-th input from its own position on, with its own tables; from
    a ``Stream`` it builds only those inputs, and walks past the others.
    The workers send back their counts and their witnesses with their
    stream positions, and the reports are exactly the serial ones; an
    error that is not a package error is raised as the serial loop would
    raise it, at the earliest input.  The loop stays in one process
    inside a worker, without ``os.fork`` or ``os.sched_getaffinity``, on
    one CPU, beside a second thread, or when a pipe or a fork fails.  The
    loop runs with the cyclic collector paused
    (``terms.collector_paused``), and the workers inherit the pause.
    """
    walk = _Walk(inputs, sections)
    if not ((shares := _shares()) > 1 and walk.long() and walk.split(shares)):
        walk.run()
    return [CheckReport(check_id, checked=walk.checked, witnesses=[w for _, w in found])
            for check_id, _, _, found in walk.rows]


SPLIT_AFTER_CALLS = 8192
"""Leg calls a ``compare_all`` stream makes in one process before it is
shared among the CPUs: a stream whose inputs before its last make at
least this many is shared from its first input; ``math.inf`` keeps every
loop in one process.  A count, not a time, so that the same streams
split on every run, however busy the machine."""

_in_worker = False


def _shares():
    """The processes that may share a stream: one per usable CPU, else one."""
    if _in_worker or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        threads = threading.active_count()
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


def _raising(exc):
    """Walks that raise ``exc`` when the first is asked for."""
    raise exc
    yield


class _Walk:
    """One ``compare_all`` loop: its legs, its rows, its input stream,
    and the witnesses found so far, each with its position."""

    def __init__(self, inputs, sections):
        self.legs = list(dict.fromkeys(leg for _, *pair in sections for leg in pair))
        self.rows = [(check_id, self.legs.index(left), self.legs.index(right), [])
                     for check_id, left, right in sections]
        self.inputs = inputs if isinstance(inputs, Stream) else Stream(inputs)
        self.pos = 0  # the position of the input being read; an error's position
        self.checked = 0

    def long(self):
        """Whether the stream is shared: the inputs before its last make at
        least ``SPLIT_AFTER_CALLS`` leg calls.  The raw walks that tell are
        taken unbuilt and put back in front; an error met while taking them
        is raised after the walks before it, as the serial loop raises it."""
        enough = SPLIT_AFTER_CALLS / max(len(self.legs), 1) + 1
        if enough == inf:
            return False
        head, walks = [], self.inputs.walks
        try:
            head.extend(islice(walks, ceil(enough)))
        except Exception as exc:
            walks = _raising(exc)
        self.inputs.walks = chain(head, walks)
        return len(head) >= enough

    def run(self, share=0, shares=1):
        """Check the inputs at positions ``share`` mod ``shares``, to the end of the stream."""
        legs, rows = self.legs, self.rows
        pos, checked = share, self.checked
        try:
            for t in self.inputs.forms(share, shares):
                values, raised = [], ()  # raised: the positions of the legs that raised
                for leg in legs:
                    try:
                        values.append(leg(t))
                    except DistlawError as exc:
                        if isinstance(exc, _OutOfTable) and not raised:
                            break
                        raised += (len(values),)
                        values.append(f"error:{type(exc).__name__}: {exc}")
                else:
                    checked += 1
                    for check_id, i, j, found in rows:
                        if values[i] != values[j] or i in raised and j in raised:
                            found.append((pos, Witness(check_id, t, values[i], values[j])))
                pos += shares
        finally:
            self.pos, self.checked = pos, checked

    def _take(self, share, shares):
        """``run`` one share; the (position, error) that stopped it, or None."""
        try:
            self.run(share=share, shares=shares)
        except Exception as exc:
            return self.pos, exc
        return None

    def split(self, shares):
        """Run the stream in ``shares`` processes, this one and
        forked workers, merge what they find in stream order, and return
        True.  If a pipe or a fork fails, kill the workers forked so far
        and return False: no input is checked yet, so the stream can run on here."""
        import pickle
        import signal
        parent, pids, readers, errors = os.getpid(), [], [], []
        try:
            for share in range(1, shares):
                reader, writer = os.pipe()
                readers.append(os.fdopen(reader, "rb"))
                with os.fdopen(writer, "wb") as out:  # the parent's end closes, forked or not
                    pid = os.fork()
                    if pid == 0:
                        self._work(share, shares, out, pickle)
                pids.append(pid)
            errors.append(self._take(0, shares))
            for pid, reader in zip(pids, readers):
                sent = reader.read()
                if not sent:
                    raise RuntimeError(f"compare_all worker {pid} ended without a result")
                checked, witnesses, error = pickle.loads(sent)
                self.checked += checked
                for (*_, found), more in zip(self.rows, witnesses):
                    found.extend(more)
                errors.append(error)
        except BaseException as exc:
            if os.getpid() != parent:  # interrupted before its _work began
                os._exit(1)
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            if isinstance(exc, OSError) and not errors:  # no pipe or fork: EAGAIN, EMFILE
                return False
            raise
        finally:
            for reader in readers:
                reader.close()
            for pid in pids:
                os.waitpid(pid, 0)
        for *_, found in self.rows:
            found.sort(key=itemgetter(0))
        errors = [e for e in errors if e is not None]
        if errors:
            raise min(errors, key=itemgetter(0))[1]
        return True

    def _work(self, share, shares, out, pickle):
        """A worker's life: check its share, send it back, and exit."""
        global _in_worker
        status = 1
        try:
            _in_worker = True
            error = self._take(share, shares)
            # an error whose __init__ wants more than its args, as ParseError's
            # does, would not unpickle in the parent: send its name and message
            if error is not None:
                try:
                    pickle.loads(pickle.dumps(error[1]))
                except Exception:
                    error = error[0], RuntimeError(f"{type(error[1]).__name__}: {error[1]}")
            with out:
                pickle.dump((self.checked, [found for *_, found in self.rows], error), out)
            status = 0
        finally:
            os._exit(status)


def compare(check_id, inputs, left_leg, right_leg):
    """``compare_all`` of one section; no check calls it, but ``bench/spans.py`` wraps it."""
    return compare_all(inputs, [(check_id, left_leg, right_leg)])[0]


Row = namedtuple("Row", "check_id stack left_leg right_leg shown per_map", defaults=(None, False))


def run(rows, carrier, bound):
    """The reports of ``rows``, one per section: the plain rows' in order,
    then the per-map rows' map by map, each map's rows in order, with ids
    ``check_id#k`` at the k-th map, whose legs are ``left_leg(fn)`` and
    ``right_leg(fn)`` (the maps are asked for only if there is such a row).
    Sections one after another over an equal stack read one stream of
    inputs, through ``compare_all``, so the legs of all maps, with any
    tables they keep, live together for that stream."""
    rows = [Row(*row) for row in rows]
    maps = carrier.maps() if any(row.per_map for row in rows) else []
    placed = []
    for stack, group in groupby(_sections(rows, maps), key=lambda section: section[1].stack):
        group = list(group)
        reports = compare_all(_stream_stack(stack, list(carrier), bound),
                              [section[2:] for section in group])
        for (place, row, *_), report in zip(group, reports):
            for w in report.witnesses if row.shown is not None else ():
                w.input = row.shown(w.input)
            placed.append((place, report))
    return [report for _, report in sorted(placed, key=itemgetter(0))]


def _sections(rows, maps):
    """Each row's sections, ``(place, row, check_id, left_leg, right_leg)``, made as read."""
    for i, row in enumerate(rows):
        if not row.per_map:
            yield (0, i), row, row.check_id, row.left_leg, row.right_leg
        for k, fn in enumerate(maps if row.per_map else ()):
            yield (1, k, i), row, f"{row.check_id}#{k}", row.left_leg(fn), row.right_leg(fn)


def _same(t):
    return t


def check_monad_laws(monad, carrier, bound):
    """Unit and associativity laws on every enumerated term within bound.

    Both unit laws read M(X) once, as it is generated, and share their
    identity leg; each other leg builds the doubly wrapped term and
    multiplies, and witnesses show the M(M(X)) input actually fed to
    mult.  Associativity runs over M(M(M(X))), streamed as it is read;
    its legs share one memo of ``mult`` on the M(M(X)) terms they meet,
    kept for this call only.
    """
    name, flat = f"monad[{monad.name}]", cache(monad.mult)
    return CheckReport(f"monad-laws[{monad.name}]", sections=run([
        Row(f"{name}:unit-left", [monad], lambda t: monad.mult(monad.unit(t)), _same,
            shown=monad.unit),
        Row(f"{name}:unit-right", [monad], lambda t: monad.mult(monad.fmap(monad.unit, t)), _same,
            shown=partial(monad.fmap, monad.unit)),
        (f"{name}:assoc", [monad, monad, monad],
         lambda t: flat(monad.mult(t)), lambda t: flat(monad.fmap(flat, t))),
    ], carrier, bound))


def check_monad_naturality(monad, carrier, bound):
    """Unit and mult are natural in the carrier, a term ``Carrier``: two
    per-map rows, over X and over M(M(X)).  The mult right leg at each
    map ``fn`` memoises its inner ``monad.fmap(fn, .)``, the per-check
    rule of ``series.check_distlaw``.
    """
    _check_bound(bound)
    if not isinstance(carrier, Carrier):
        raise ShapeMismatch(f"naturality[{monad.name}] needs a term Carrier, "
                            f"not {type(carrier).__name__}")
    return CheckReport(f"naturality[{monad.name}]", sections=run([
        Row(f"naturality[{monad.name}]:unit", [],
            lambda fn: lambda x: monad.fmap(fn, monad.unit(x)),
            lambda fn: lambda x: monad.unit(fn(x)), per_map=True),
        Row(f"naturality[{monad.name}]:mult", [monad, monad],
            lambda fn: lambda t: monad.fmap(fn, monad.mult(t)),
            lambda fn: lambda t, memo=cache(partial(monad.fmap, fn)): monad.mult(
                monad.fmap(memo, t)), per_map=True),
    ], carrier, bound))
