import math
import os

import pytest

import distlaw.checks
from distlaw import globular_set_from_names


@pytest.fixture
def one_process(monkeypatch):
    """Keep every ``compare_all`` loop in this process: a test that counts
    in-process calls would not see the calls of a worker."""
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", math.inf)


@pytest.fixture
def three_cpus(monkeypatch):
    """A split stream goes to three processes, on a machine of any number of CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


@pytest.fixture(params=[math.inf, 0], ids=["one-process", "split-at-once"])
def split_after(request, monkeypatch, three_cpus):
    """Every ``compare_all`` loop in one process; then every one shared at
    once among three processes."""
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", request.param)
    return request.param


@pytest.fixture
def parallel_2gset():
    """Two objects, two parallel 1-cells, two parallel 2-cells."""
    return globular_set_from_names(
        2,
        [["x", "y"], ["f", "g"], ["al", "be"]],
        [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}],
        [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}])


@pytest.fixture
def chain_2gset():
    """Two composable stacks of 2-cells over a path of three objects."""
    return globular_set_from_names(
        2,
        [["x", "y", "z"],
         ["f1", "g1", "h1", "p", "q1", "q2"],
         ["a1", "a2", "c1", "c2"]],
        [{"f1": "x", "g1": "x", "h1": "x", "p": "y", "q1": "y", "q2": "y"},
         {"a1": "f1", "a2": "g1", "c1": "p", "c2": "q1"}],
        [{"f1": "y", "g1": "y", "h1": "y", "p": "z", "q1": "z", "q2": "z"},
         {"a1": "g1", "a2": "h1", "c1": "q1", "c2": "q2"}])


@pytest.fixture
def loop_2gset():
    """One object, one endo-1-cell, one 2-cell on it."""
    return globular_set_from_names(
        2, [["x"], ["e"], ["u"]],
        [{"e": "x"}, {"u": "e"}], [{"e": "x"}, {"u": "e"}])


@pytest.fixture
def loop_set_2gset():
    """One object, two endo-1-cells, both 2-cells on one of them."""
    return globular_set_from_names(
        2, [["x"], ["e", "f"], ["u", "v"]],
        [{"e": "x", "f": "x"}, {"u": "e", "v": "e"}],
        [{"e": "x", "f": "x"}, {"u": "e", "v": "e"}])


@pytest.fixture
def swap_set_2gset():
    """One object, two endo-1-cells, 2-cells u: e => f and v: f => e."""
    return globular_set_from_names(
        2, [["x"], ["e", "f"], ["u", "v"]],
        [{"e": "x", "f": "x"}, {"u": "e", "v": "f"}],
        [{"e": "x", "f": "x"}, {"u": "f", "v": "e"}])


@pytest.fixture
def two_object_2gset():
    """Two objects, a 2-cell between parallel 1-cells and one on an endo-1-cell."""
    return globular_set_from_names(
        2, [["x", "y"], ["f", "g", "h"], ["a", "b"]],
        [{"f": "x", "g": "x", "h": "y"}, {"a": "f", "b": "h"}],
        [{"f": "y", "g": "y", "h": "y"}, {"a": "g", "b": "h"}])


@pytest.fixture
def theta_3gset():
    """Parallel 3-cells between parallel 2-cells between parallel 1-cells."""
    return globular_set_from_names(
        3,
        [["x", "y"], ["f", "g"], ["al", "be"], ["u", "v"]],
        [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}, {"u": "al", "v": "al"}],
        [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}, {"u": "be", "v": "be"}])


@pytest.fixture
def fg_graph():
    """Graph with edges f: v0 -> v1 and g: v1 -> v1."""
    return globular_set_from_names(
        1, [["v0", "v1"], ["f", "g"]],
        [{"f": "v0", "g": "v1"}], [{"f": "v1", "g": "v1"}])


@pytest.fixture
def arrow_graph():
    return globular_set_from_names(
        1, [["v0", "v1"], ["f"]], [{"f": "v0"}], [{"f": "v1"}])


@pytest.fixture
def point_2gset():
    return globular_set_from_names(2, [["x"], [], []], [{}, {}], [{}, {}])
