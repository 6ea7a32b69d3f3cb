"""The one diagram runner, ``checks.run``, and the walks it takes to
decide whether one of its streams is shared among CPUs."""

import ast
import glob
import os
from functools import partial
from itertools import islice

import distlaw
import distlaw.checks
from distlaw import (Algebra, Carrier, Gen, GlobularSet, IntComb, MSet, Seq, all_routes,
                     check_algebra, check_distlaw, check_monad_laws, check_monad_naturality,
                     check_yang_baxter, composition_series)
from distlaw.checks import Row, _same, _Walk, compare_all, run
from distlaw.laws import LAW_UNIT_ABSORPTION
from distlaw.monads import ADJOIN_UNIT, FREE_COMM_MONOID, FREE_MONOID, FREE_SEMIGROUP, Stream
from distlaw.normalize import RIG_SERIES
from distlaw.series import compare_routes

from oracles import run_by_section

X2 = Carrier.of_size(2)
a = Gen("a")


def _callers(name):
    """``(module, function)`` for each call of ``name`` in ``src/distlaw``,
    by the innermost named function around it (``None`` at module level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = (where[0], node.name)
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in glob.glob(os.path.join(os.path.dirname(distlaw.__file__), "*.py")):
        with open(path) as source:
            visit(ast.parse(source.read()), (os.path.basename(path), None))
    return found


def test_only_the_runner_reads_a_diagrams_inputs():
    """Every check hands its rows to ``checks.run``: nothing else calls the
    loop or streams a diagram's inputs, but for the single-route leaf of
    ``compare_routes``, which counts its inputs and compares nothing, and
    ``enum_stack``, which lists a stack and which no check calls."""
    assert _callers("compare_all") == {("checks.py", "run"), ("checks.py", "compare")}
    assert _callers("_stream_stack") == {("checks.py", "run"), ("series.py", "compare_routes"),
                                         ("monads.py", "enum_stack")}
    assert _callers("enum_stack") == set()


def _shape(report):
    return report.title, report.checked, [(w.input, w.left, w.right) for w in report.witnesses]


def _odd(t):
    return len(t.items) % 2


ROWS = [
    # two rows over one stack, sharing a leg; witnesses shown wrapped
    Row("w:odd", [FREE_SEMIGROUP], _odd, lambda t: 0, shown=FREE_SEMIGROUP.unit),
    Row("w:same", [FREE_SEMIGROUP], _same, lambda t: FREE_SEMIGROUP.mult(
        FREE_SEMIGROUP.unit(t))),
    ("w:pointed", [FREE_SEMIGROUP, ADJOIN_UNIT], _odd, lambda t: 1),
    Row("m:point", [], lambda fn: fn, lambda fn: _same, per_map=True),
    Row("m:word", [FREE_SEMIGROUP], lambda fn: partial(FREE_SEMIGROUP.fmap, fn),
        lambda fn: _same, per_map=True),
]


def test_a_run_matches_its_section_by_section_reference(split_after):
    """Plain rows in order, then per-map rows map by map, with the
    witnesses the reference loop finds, shown as the row says."""
    reports = run(ROWS, X2, 3)
    assert [_shape(r) for r in reports] == [_shape(r) for r in run_by_section(ROWS, X2, 3)]
    assert [r.title for r in reports[:5]] == ["w:odd", "w:same", "w:pointed",
                                              "m:point#0", "m:word#0"]
    assert len(reports) == 3 + 2 * (1 + 4 + 9)
    assert reports[0].witnesses[0].input == Seq((Seq((a,)),))
    # a carrier without maps reads no inputs for the per-map rows
    cells = GlobularSet(0, [[]])
    assert [r.title for r in run(ROWS, cells, 2)] == ["w:odd", "w:same", "w:pointed"]


def test_each_check_reads_one_stream_per_run_of_rows_over_one_stack(monkeypatch):
    """The unit laws share one stream, the routes another, and every other
    row, the naturality rows included, reads its own."""
    streamed = []
    plain = distlaw.checks._stream_stack

    def recorded(stack, base, bound):
        streamed.append(len(stack))
        return plain(stack, base, bound)

    monkeypatch.setattr(distlaw.checks, "_stream_stack", recorded)
    algebra = Algebra(FREE_SEMIGROUP, (a,), {Seq((a,) * n): a for n in (1, 2)}, 2)
    checks = {
        "monad laws": (lambda: check_monad_laws(FREE_MONOID, X2, 2), [1, 3]),
        "naturality": (lambda: check_monad_naturality(FREE_MONOID, X2, 2), [0, 2]),
        "distlaw": (lambda: check_distlaw(LAW_UNIT_ABSORPTION, X2, 2), [1, 3, 1, 3, 2]),
        "cells": (lambda: check_distlaw(composition_series(2).law(2, 1),
                                        GlobularSet(2, [[], [], []]), 2), [1, 3, 1, 3]),
        "yang-baxter": (lambda: check_yang_baxter(RIG_SERIES, 3, 2, 1, Carrier.of_size(1), 2),
                        [3]),
        "routes": (lambda: compare_routes(RIG_SERIES, all_routes(4), Carrier.of_size(1), 2),
                   [8]),
        "algebra": (lambda: check_algebra(algebra), [0, 2]),
    }
    for name, (check, stacks) in checks.items():
        streamed.clear()
        check()
        assert streamed == stacks, name


def _weights_of_one_generators_multisets(bound):
    """Terms whose weights are those of the multisets of one generator
    within ``bound`` (two of weight one, one of each weight up to ``bound``),
    built without walking them."""
    return [IntComb(())] + [IntComb(((a, k),)) for k in range(1, bound + 1)]


def _counted_walks(stream):
    """The stream, its raw walks counted as they are taken, and the walks taken so far."""
    taken = []

    def walks(raw):
        for walk in raw:
            taken.append(walk)
            yield walk

    stream.walks = walks(stream.walks)
    return stream, taken


def _unbuilt(walk):
    raise AssertionError("a walk was built")


def test_the_stream_over_a_dear_domain_is_made_in_little_memory():
    """Multisets over that domain at bound 3000: each budget's steps are
    listed when a walk first asks for them, so making the stream lists
    none of its 3,000 budgets."""
    import tracemalloc
    domain = _weights_of_one_generators_multisets(3000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        stream = FREE_COMM_MONOID.stream(domain, 3000)
        made = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert made < 2 * 2 ** 20
    assert next(stream) == MSet(())


def test_the_split_decision_counts_until_the_stream_is_long():
    """Multisets over that domain at bound 3000 number in the huge
    integers; whether a stream of them is long, for two legs, takes its
    first 8192 / 2 + 1 raw walks, builds none, and puts them back in front."""
    domain = _weights_of_one_generators_multisets(3000)
    stream, taken = _counted_walks(FREE_COMM_MONOID.stream(domain, 3000))
    build, stream.build = stream.build, _unbuilt
    assert _Walk(stream, [("s", _odd, _same)]).long()
    assert len(taken) == 4097
    stream.build = build
    assert list(islice(stream, 5000)) == list(islice(FREE_COMM_MONOID.stream(domain, 3000), 5000))


def test_a_split_is_never_sized_on_one_cpu(monkeypatch):
    """One CPU, or a worker, shares nothing, so it takes no walk ahead of
    its legs: its first leg runs after exactly one walk is taken."""
    def first_leg(t):
        seen.append(len(taken))
        return t

    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for in_worker in (False, True):
        monkeypatch.setattr(distlaw.checks, "_in_worker", in_worker)
        stream, taken = _counted_walks(Stream(range(5)))
        seen = []
        report, = compare_all(stream, [("one", first_leg, _same)])
        assert report.checked == 5 and report.passed
        assert seen == [1, 2, 3, 4, 5]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
