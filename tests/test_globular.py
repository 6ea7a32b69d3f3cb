import json
import os
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distlaw import (CompositionMonad, DistLaw, DistributiveSeries, GlobularSet, StringCell,
                     all_routes,
                     boundary, brute_force_oracle, check_globular_distlaw,
                     check_globular_yang_baxter, check_interchange,
                     check_monad_laws, check_route_independence,
                     compose_series, composition_series, enum_stack,
                     free_ncat, globular_set_from_names, identity_cell,
                     interchange_law, load_gset, padded_transpose_candidate,
                     validate_series)
from distlaw import globular
from distlaw.errors import (ComposabilityError, DimensionError, DistlawError,
                            FileFormatError, IndexOrder, RaggedGrid,
                            ShapeMismatch)
from distlaw.globular import (GenCell, _atomic_along, _compose_nested, _embed, _oracle_closure,
                              identity_at)
from distlaw.terms import Gen

from oracles import (non_globular_cells, paste, reference_boundary, reference_layers,
                     reference_string)


def cells_by_name(gset, dim):
    return {c.name: c for c in gset.cells_at(dim)}


def test_one_dimensional_sets_are_vacuously_globular(fg_graph):
    assert non_globular_cells(fg_graph) == []


def test_parallel_two_cell_fixture_is_globular(parallel_2gset):
    assert non_globular_cells(parallel_2gset) == []


def test_non_parallel_boundaries_fail_with_witness():
    with pytest.raises(FileFormatError) as info:
        globular_set_from_names(
            2,
            [["x", "y", "z"], ["f", "g"], ["al"]],
            [{"f": "x", "g": "y"}, {"al": "f"}],
            [{"f": "y", "g": "z"}, {"al": "g"}])
    assert "al" in str(info.value)


def test_validate_reports_the_broken_cell():
    x = globular_set_from_names(1, [["x", "y"], ["f"]],
                                [{"f": "x"}], [{"f": "y"}])
    f = cells_by_name(x, 1)["f"]
    gg = globular_set_from_names(1, [["x", "y"], ["g"]],
                                 [{"g": "y"}], [{"g": "y"}])
    g = cells_by_name(gg, 1)["g"]
    # a 2-cell whose boundaries are not parallel is refused where it is built
    with pytest.raises(ShapeMismatch,
                       match="^cell 'bad': source f and target g are not parallel$"):
        GenCell("bad", 2, f, g)


def _generator_cases():
    """Malformed generators: how each is built, the name its error gives, how the error ends."""
    x, y = GenCell("x", 0), GenCell("y", 0)
    f, g, h = GenCell("f", 1, x, y), GenCell("g", 1, x, y), GenCell("h", 1, y, x)
    al, de = GenCell("al", 2, f, g), GenCell("de", 2, g, f)
    return {
        "2-cell-not-parallel": (lambda: GenCell("u", 2, f, h), "u", "not parallel"),
        "3-cell-not-parallel": (lambda: GenCell("t", 3, al, de), "t", "not parallel"),
        "2-cell-on-objects": (lambda: GenCell("w", 2, x, x), "w", "of dimension 1"),
        "faces-of-two-dimensions": (lambda: GenCell("v", 2, f, x), "v", "of dimension 1"),
        "source-not-a-cell": (lambda: GenCell("s", 1, Gen("a"), y), "s", "of dimension 0"),
        "1-cell-without-faces": (lambda: GenCell("e", 1), "e", "of dimension 0"),
        "object-with-faces": (lambda: GenCell("o", 0, x, y), "o", "of dimension -1"),
    }


GENERATOR_CASES = _generator_cases()


@pytest.mark.parametrize("case", GENERATOR_CASES.values(), ids=GENERATOR_CASES.keys())
def test_a_generator_checks_its_own_faces(case):
    build, name, fragment = case
    with pytest.raises(ShapeMismatch, match=f"^cell '{name}': .*{fragment}$"):
        build()


def test_a_globular_set_checks_each_layer_and_each_generators_faces():
    x, y = GenCell("x", 0), GenCell("y", 0)
    f = GenCell("f", 1, x, y)
    al = GenCell("al", 2, f, f)
    # the face f of al is missing from layer 1; f itself is listed one layer too high
    with pytest.raises(ShapeMismatch, match="^cell 'al': a face is not in layer 1$"):
        GlobularSet(2, [(x, y), (), (al,)])
    with pytest.raises(ShapeMismatch, match="^cell 'f': dimension 1, in layer 2$"):
        GlobularSet(2, [(x, y), (), (f,)])
    assert free_ncat(GlobularSet(2, [(x, y), (f,), (al,)]), 2).counts() == [2, 3, 5]


def test_boundary_endpoints_of_a_path(fg_graph):
    v = cells_by_name(fg_graph, 0)
    e = cells_by_name(fg_graph, 1)
    path = StringCell(0, 1, (e["f"], e["g"]))
    assert boundary(path, "src", 0) == v["v0"]
    assert boundary(path, "tgt", 0) == v["v1"]


def test_boundary_of_an_empty_string_comes_from_the_anchor(fg_graph):
    v = cells_by_name(fg_graph, 0)
    identity = StringCell(0, 1, (), v["v0"])
    assert boundary(identity, "src", 0) == v["v0"]
    assert boundary(identity, "tgt", 0) == v["v0"]


def test_boundary_above_the_composition_dimension_is_entrywise(parallel_2gset):
    cells = cells_by_name(parallel_2gset, 2)
    ones = cells_by_name(parallel_2gset, 1)
    row = StringCell(0, 2, (cells["al"],))
    tgt = boundary(row, "tgt", 1)
    assert tgt == StringCell(0, 1, (ones["g"],))


def test_boundary_dimension_errors(parallel_2gset):
    al = cells_by_name(parallel_2gset, 2)["al"]
    with pytest.raises(DimensionError):
        boundary(al, "src", 2)
    with pytest.raises(DimensionError):
        boundary(al, "src", 3)
    with pytest.raises(DimensionError):
        boundary(al, "src", -1)


@pytest.mark.parametrize("call", [
    lambda: boundary(Gen("a"), "src", 0),
    lambda: CompositionMonad(0, 1).enumerate([Gen("a")], 1),
    lambda: StringCell(0, 1, (Gen("a"),)),
    lambda: StringCell(0, 1, (GENERATORS[1][0], object())),
    lambda: StringCell(0, 1, (), Gen("a")),
], ids=["boundary", "enumerate", "string-entry", "string-later-entry", "string-anchor"])
def test_values_that_are_not_cells_are_named(call):
    with pytest.raises(ShapeMismatch, match="^not a cell: "):
        call()


def _theta_generators():
    """Generators of each dimension up to 3; strings need not compose to be built."""
    x, y = GenCell("x", 0), GenCell("y", 0)
    f, g = GenCell("f", 1, x, y), GenCell("g", 1, x, y)
    al, be = GenCell("al", 2, f, g), GenCell("be", 2, f, g)
    return [(x, y), (f, g), (al, be), (GenCell("u", 3, al, be), GenCell("v", 3, al, be))]


GENERATORS = _theta_generators()


@st.composite
def string_args(draw, dim, depth):
    """``(along, dim, entries, anchor)`` of a string of ``dim``-cells nested ``depth`` deep."""
    along = draw(st.integers(0, dim - 1))
    if draw(st.booleans()):
        return along, dim, (), draw(nested_cells(along, depth - 1))
    entries = draw(st.lists(nested_cells(dim, depth - 1), min_size=1, max_size=3))
    return along, dim, tuple(entries), None


def nested_cells(dim, depth):
    generators = st.sampled_from(GENERATORS[dim])
    if depth <= 0 or dim == 0:
        return generators
    return st.one_of(generators, string_args(dim, depth).map(lambda args: StringCell(*args)))


def _rebuilt(cell):
    """An equal cell built from new objects only."""
    if cell is None:
        return None
    if isinstance(cell, GenCell):
        return GenCell(cell.name, cell.dim, _rebuilt(cell.src), _rebuilt(cell.tgt))
    return StringCell(cell.along, cell.dim, [_rebuilt(e) for e in cell.entries],
                      _rebuilt(cell.anchor))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 3).flatmap(lambda dim: string_args(dim, 3)), min_size=1,
                max_size=6))
def test_string_cells_match_the_reference_constructor(drawn):
    hashes = {}
    for along, dim, entries, anchor in drawn:
        # entries may come as any iterable
        cell = StringCell(along, dim, list(entries), anchor)
        expected, key, hashed = reference_string(along, dim, entries, anchor)
        assert (cell.key, hash(cell), cell.anchor) == (key, hashed, anchor)
        assert len(cell.entries) == len(expected)
        assert all(a is b for a, b in zip(cell.entries, expected))
        copy = _rebuilt(cell)
        assert copy == cell and hash(copy) == hash(cell)
        for c in (cell, copy):
            assert hashes.setdefault(c.key, hash(c)) == hash(c)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: string_args(dim, 2)), st.data())
def test_an_entry_of_another_dimension_is_named(args, data):
    along, dim, entries, _ = args
    stray = data.draw(nested_cells(data.draw(st.sampled_from(
        [m for m in range(4) if m != dim])), 1))
    entries = list(entries)
    entries.insert(data.draw(st.integers(0, len(entries))), stray)
    with pytest.raises(ShapeMismatch) as info:
        StringCell(along, dim, entries)
    assert str(info.value) == f"entry {stray} has dimension {stray.dim}, expected {dim}"


X, F, AL = GENERATORS[0][0], GENERATORS[1][0], GENERATORS[2][0]


@pytest.mark.parametrize("args, error, message", [
    ((0, 2, (AL, F)), ShapeMismatch, "entry f has dimension 1, expected 2"),
    ((0, 1, ()), ShapeMismatch, "empty string along 0 needs an anchor of that dimension"),
    ((1, 2, (), X), ShapeMismatch, "empty string along 1 needs an anchor of that dimension"),
    ((1, 1, (F,)), DimensionError,
     "a string along 1 must live strictly above that dimension, got 1"),
    ((-1, 1, (F,)), DimensionError,
     "a string along -1 must live strictly above that dimension, got 1"),
    # along first, then each entry, then the anchor
    ((2, 1, (AL,)), DimensionError,
     "a string along 2 must live strictly above that dimension, got 1"),
    ((0, 2, (F,), X), ShapeMismatch, "entry f has dimension 1, expected 2"),
], ids=["entry", "no-anchor", "anchor-dimension", "along-at-dim", "along-negative",
        "along-before-entries", "entries-before-anchor"])
def test_string_cell_errors(args, error, message):
    with pytest.raises(error) as info:
        StringCell(*args)
    assert str(info.value) == message


def test_apply_t0_enumerates_paths(fg_graph):
    out = CompositionMonad(0, 1).apply(fg_graph, 2)
    assert out.counts() == [2, 6]
    names = {str(c) for c in out.cells_at(1)}
    assert names == {"[~v0]^1_0", "[~v1]^1_0", "[f]_0", "[g]_0",
                     "[f;g]_0", "[g;g]_0"}


def test_apply_ti_at_bound_one_gives_units_and_identities(parallel_2gset):
    out = CompositionMonad(1, 2).apply(parallel_2gset, 1)
    assert out.cells_at(0) == parallel_2gset.cells_at(0)
    assert out.cells_at(1) == parallel_2gset.cells_at(1)
    dim2 = set(out.cells_at(2))
    singletons = {StringCell(1, 2, (c,)) for c in parallel_2gset.cells_at(2)}
    identities = {StringCell(1, 2, (), c) for c in parallel_2gset.cells_at(1)}
    assert dim2 == singletons | identities


def test_apply_ti_output_is_globular(parallel_2gset, chain_2gset, theta_3gset):
    for gset in (parallel_2gset, chain_2gset, theta_3gset):
        for i in range(gset.n):
            assert non_globular_cells(CompositionMonad(i, gset.n).apply(gset, 2)) == []


@pytest.mark.parametrize("name", ["two_cell.gset", "loop_set.gset"])
def test_cells_come_in_the_breadth_first_reference_order(name):
    """Each monad over the set, and along 0 over the strings along 1, as ``free_ncat`` goes."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as handle:
        gset = load_gset(handle.read())
    for bound in range(4):
        strings = CompositionMonad(1, 2).apply(gset, bound)
        for monad, carrier in ((CompositionMonad(1, 2), gset), (CompositionMonad(0, 2), gset),
                               (CompositionMonad(0, 2), strings)):
            cells = monad.apply(carrier, bound)
            assert [list(cells.cells_at(m)) for m in range(3)] == \
                reference_layers(monad, carrier, bound)


def test_apply_ti_rejects_bad_dimension(parallel_2gset):
    with pytest.raises(DimensionError):
        CompositionMonad(1, 1)
    with pytest.raises(DimensionError):
        CompositionMonad(0, 1).apply(parallel_2gset, 2)
    with pytest.raises(DimensionError):
        CompositionMonad(0, 1).enumerate(parallel_2gset.cells_at(2), 2)


def test_negative_bound_is_rejected(loop_2gset):
    with pytest.raises(ValueError):
        CompositionMonad(0, 2).enumerate(loop_2gset, -1)
    with pytest.raises(ValueError):
        free_ncat(loop_2gset, -1)
    with pytest.raises(ValueError):
        # a 0-globular set has no composition monad to apply
        free_ncat(globular_set_from_names(0, [["x"]], [], []), -1)
    with pytest.raises(ValueError):
        brute_force_oracle(loop_2gset, -1)
    with pytest.raises(ValueError):
        check_interchange(1, 0, loop_2gset, -1)


def test_cell_ceiling_guards_enumeration(fg_graph, monkeypatch):
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 3)
    with pytest.raises(BoundTooLarge):
        CompositionMonad(0, 1).apply(fg_graph, 3)
    with pytest.raises(BoundTooLarge):
        CompositionMonad(0, 1).enumerate(fg_graph, 3)
    with pytest.raises(BoundTooLarge):
        brute_force_oracle(fg_graph, 3)


def test_unit_and_mult_of_composition_monads(fg_graph):
    T = CompositionMonad(0, 1)
    e = cells_by_name(fg_graph, 1)
    f, g = e["f"], e["g"]
    assert T.unit(f) == StringCell(0, 1, (f,))
    nested = StringCell(0, 1, (StringCell(0, 1, (f,)), StringCell(0, 1, (g,))))
    assert T.mult(nested) == StringCell(0, 1, (f, g))
    v0 = cells_by_name(fg_graph, 0)["v0"]
    empty = StringCell(0, 1, (), v0)
    outer_empty = StringCell(0, 1, (), v0)
    assert T.mult(outer_empty) == outer_empty
    mixed = StringCell(0, 1, (StringCell(0, 1, (f, g)), StringCell(0, 1, (g,))))
    assert T.mult(mixed) == StringCell(0, 1, (f, g, g))


def test_mult_shape_and_composability_errors(fg_graph):
    T = CompositionMonad(0, 1)
    e = cells_by_name(fg_graph, 1)
    v = cells_by_name(fg_graph, 0)
    with pytest.raises(ShapeMismatch):
        T.mult(StringCell(0, 1, (e["f"],)))
    bad = StringCell(0, 1, (StringCell(0, 1, (e["g"],)), StringCell(0, 1, (e["f"],))))
    with pytest.raises(ComposabilityError):
        T.mult(bad)
    two_anchors = StringCell(0, 1, (StringCell(0, 1, (), v["v0"]),
                                    StringCell(0, 1, (), v["v1"])))
    with pytest.raises(ComposabilityError) as info:
        T.mult(two_anchors)
    assert str(info.value) == "flattening identities with different anchors: [v0, v1]"


@pytest.mark.parametrize("transform, wrap, message", [
    (lambda c: CompositionMonad(1, 2).mult(c), None,
     "mult along 1: a1 is not a string along 1"),
    (lambda c: CompositionMonad(1, 2).mult(c), 1,
     "mult along 1: entry a1 is not a string along 1"),
    (lambda c: interchange_law(c, 1, 0), None,
     "interchange: a1 is not a string along 1"),
    (lambda c: interchange_law(c, 1, 0), 1,
     "interchange: entry a1 is not a string along 0"),
    (lambda c: padded_transpose_candidate(c, 1, 0), None,
     "padding candidate: a1 is not a string along 0"),
    (lambda c: padded_transpose_candidate(c, 1, 0), 0,
     "padding candidate: entry a1 is not a string along 1"),
], ids=["mult", "mult-entry", "interchange", "interchange-entry",
        "padding", "padding-entry"])
def test_cell_transforms_name_the_misshapen_cell(chain_2gset, transform, wrap, message):
    # a bare 2-cell is no string; wrapped once along the outer dimension,
    # its only entry is no string along the inner one
    cell = cells_by_name(chain_2gset, 2)["a1"]
    if wrap is not None:
        cell = StringCell(wrap, 2, (cell,))
    with pytest.raises(ShapeMismatch) as info:
        transform(cell)
    assert str(info.value) == message


def test_globular_monad_laws(fg_graph, parallel_2gset):
    assert check_monad_laws(CompositionMonad(0, 1), fg_graph, 2).passed
    assert check_monad_laws(CompositionMonad(0, 2), parallel_2gset, 2).passed
    assert check_monad_laws(CompositionMonad(1, 2), parallel_2gset, 2).passed


def grid_of(chain, rows):
    cells = cells_by_name(chain, 2)
    return StringCell(1, 2, tuple(
        StringCell(0, 2, tuple(cells[n] for n in row)) for row in rows))


def test_interchange_transposes_a_square(chain_2gset):
    grid = grid_of(chain_2gset, [["a1", "c1"], ["a2", "c2"]])
    cells = cells_by_name(chain_2gset, 2)
    transposed = interchange_law(grid, 1, 0)
    assert transposed == StringCell(0, 2, (
        StringCell(1, 2, (cells["a1"], cells["a2"])),
        StringCell(1, 2, (cells["c1"], cells["c2"]))))


def test_interchange_fixes_singletons(chain_2gset):
    grid = grid_of(chain_2gset, [["a1"]])
    out = interchange_law(grid, 1, 0)
    assert out == StringCell(0, 2, (StringCell(1, 2, (cells_by_name(chain_2gset, 2)["a1"],)),))


def test_interchange_requires_descending_dimensions(chain_2gset):
    grid = grid_of(chain_2gset, [["a1"]])
    with pytest.raises(IndexOrder):
        interchange_law(grid, 0, 1)


def test_interchange_rejects_ragged_grids(chain_2gset):
    ragged = grid_of(chain_2gset, [["a1", "c1"], ["a2"]])
    with pytest.raises(RaggedGrid):
        interchange_law(ragged, 1, 0)


def test_interchange_degenerate_empty_column(chain_2gset):
    ones = cells_by_name(chain_2gset, 1)
    anchor = StringCell(0, 1, (ones["f1"],))
    empty_column = StringCell(1, 2, (), anchor)
    out = interchange_law(empty_column, 1, 0)
    assert out == StringCell(0, 2, (StringCell(1, 2, (), ones["f1"]),))
    # doubly degenerate: the empty column on an empty row
    zeros = cells_by_name(chain_2gset, 0)
    deep = StringCell(1, 2, (), StringCell(0, 1, (), zeros["x"]))
    assert interchange_law(deep, 1, 0) == StringCell(0, 2, (), zeros["x"])


def test_interchange_degenerate_identity_stack(chain_2gset):
    zeros = cells_by_name(chain_2gset, 0)
    eps = StringCell(0, 2, (), zeros["x"])
    stack = StringCell(1, 2, (eps, eps))
    assert interchange_law(stack, 1, 0) == StringCell(0, 2, (), zeros["x"])
    mixed = StringCell(1, 2, (eps, StringCell(0, 2, (), zeros["y"])))
    with pytest.raises(ComposabilityError) as info:
        interchange_law(mixed, 1, 0)
    assert str(info.value) == "stacked identities with different anchors: [x, y]"


def _proper_grids(gset, bound):
    """Nonempty strings of nonempty strings on both sides of the law."""
    T0, T1 = CompositionMonad(0, gset.n), CompositionMonad(1, gset.n)
    side_10 = T1.apply(T0.apply(gset, bound), bound)
    side_01 = T0.apply(T1.apply(gset, bound), bound)

    def proper(cell):
        return (isinstance(cell, StringCell) and cell.entries
                and all(isinstance(e, StringCell) and e.entries for e in cell.entries))

    return ([c for c in side_10.cells_at(2) if proper(c)],
            [c for c in side_01.cells_at(2) if proper(c)])


def test_interchange_is_a_bijection_onto_rectangular_grids(chain_2gset):
    grids_10, grids_01 = _proper_grids(chain_2gset, 2)
    # boundary matching forces every composable stack of rows to be rectangular
    assert all(len({len(e.entries) for e in g.entries}) == 1 for g in grids_10)
    rectangular_01 = [g for g in grids_01
                      if len({len(e.entries) for e in g.entries}) == 1]
    assert len(rectangular_01) < len(grids_01)  # ragged rows of columns exist
    images = [interchange_law(g, 1, 0) for g in grids_10]
    assert len(set(images)) == len(images)
    assert set(images) == set(rectangular_01)
    for g in grids_10:
        assert padded_transpose_candidate(interchange_law(g, 1, 0), 1, 0) == g


def test_interchange_passes_the_adapted_check(parallel_2gset, chain_2gset, loop_2gset):
    for gset in (parallel_2gset, chain_2gset, loop_2gset):
        report = check_interchange(1, 0, gset, 2)
        assert report.passed, report.all_witnesses()[:1]


def test_all_interchange_pairs_in_three_dimensions(theta_3gset):
    for (i, j) in ((1, 0), (2, 0), (2, 1)):
        assert check_interchange(i, j, theta_3gset, 2).passed


def test_globular_yang_baxter(theta_3gset):
    assert check_globular_yang_baxter(2, 1, 0, theta_3gset, 2).passed
    with pytest.raises(IndexOrder):
        check_globular_yang_baxter(0, 1, 2, theta_3gset, 2)


def test_composition_dimensions_outside_the_set_are_rejected(parallel_2gset):
    with pytest.raises(IndexOrder):
        check_interchange(5, 0, parallel_2gset, 1)
    with pytest.raises(IndexOrder):
        check_globular_yang_baxter(5, 1, 0, parallel_2gset, 1)


def test_padding_candidate_fails_with_value_witnesses(chain_2gset):
    report = check_globular_distlaw(
        0, 1, lambda c: padded_transpose_candidate(c, 1, 0), chain_2gset, 2,
        title="pad-candidate")
    assert not report.passed
    witnesses = report.all_witnesses()
    assert witnesses
    value_mismatches = [w for w in witnesses
                        if isinstance(w.left, StringCell) and isinstance(w.right, StringCell)]
    assert value_mismatches, "expected diverging padded transposes, not just shape errors"


def test_identity_cells_inflate_componentwise(fg_graph):
    e = cells_by_name(fg_graph, 1)
    path = StringCell(0, 1, (e["f"], e["g"]))
    ident = identity_cell(path)
    assert ident == StringCell(0, 2, (StringCell(1, 2, (), e["f"]),
                                      StringCell(1, 2, (), e["g"])))
    assert identity_at(path, 3).dim == 3
    with pytest.raises(DimensionError):
        identity_at(ident, 1)


def test_free_ncat_on_a_point(point_2gset):
    assert free_ncat(point_2gset, 2).counts() == [1, 1, 1]


def test_free_category_on_one_arrow(arrow_graph):
    assert free_ncat(arrow_graph, 3).counts() == [2, 3]


def test_free_ncat_counts_match_the_oracle(fg_graph, arrow_graph, point_2gset,
                                           parallel_2gset, chain_2gset, loop_2gset):
    for gset in (fg_graph, arrow_graph, point_2gset,
                 parallel_2gset, chain_2gset, loop_2gset):
        for bound in (0, 2):
            assert free_ncat(gset, bound).counts() == brute_force_oracle(gset, bound)
    assert free_ncat(parallel_2gset, 0).counts() == [2, 2, 2]


def _gset_from_pairs(objects, layers):
    """A globular set from its objects and layers of name -> (source, target) maps."""
    return globular_set_from_names(
        len(layers), [objects] + [sorted(layer) for layer in layers],
        [{c: s for c, (s, _) in layer.items()} for layer in layers],
        [{c: t for c, (_, t) in layer.items()} for layer in layers])


def _draw_parallel(draw, below, prefix, count):
    """``count`` named cells, each between two parallel cells of ``below``."""
    cells = {}
    for k in range(count):
        s = draw(st.sampled_from(sorted(below)))
        cells[f"{prefix}{k}"] = (s, draw(st.sampled_from(sorted(c for c in below
                                                                 if below[c] == below[s]))))
    return cells


def _tiny_layers(draw):
    """2-3 objects in a line, two forward 1-cells, 2-cells between parallel 1-cells."""
    objects = [f"x{i}" for i in range(draw(st.integers(2, 3)))]
    ones = {}
    for k in range(2):
        i = draw(st.integers(0, len(objects) - 2))
        ones[f"f{k}"] = (objects[i], objects[draw(st.integers(i + 1, len(objects) - 1))])
    return objects, [ones, _draw_parallel(draw, ones, "u", draw(st.integers(1, 2)))]


@st.composite
def tiny_2gsets(draw):
    return _gset_from_pairs(*_tiny_layers(draw))


@st.composite
def tiny_3gsets(draw):
    """The tiny layers above plus one or two 3-cells between parallel 2-cells.

    The oracle closes each of the 976 sets this can draw at bound 2 in
    under 0.2 s (2 shared cores, Python 3.11), so 25 examples cost a few
    seconds at most.
    """
    objects, layers = _tiny_layers(draw)
    layers.append(_draw_parallel(draw, layers[-1], "t", draw(st.integers(1, 2))))
    return _gset_from_pairs(objects, layers)


@settings(max_examples=25, deadline=None)
@given(tiny_2gsets(), tiny_3gsets())
def test_free_ncat_counts_match_the_oracle_on_random_sets(gset2, gset3):
    for gset, bound in ((gset2, 2), (gset2, 3), (gset3, 2)):
        assert free_ncat(gset, bound).counts() == brute_force_oracle(gset, bound)


@settings(max_examples=20, deadline=None)
@given(tiny_2gsets(), tiny_3gsets())
def test_free_ncat_output_is_globular_on_random_sets(gset2, gset3):
    for gset in (gset2, gset3):
        assert non_globular_cells(free_ncat(gset, 2)) == []


def test_the_globular_reference_sees_a_string_that_does_not_compose():
    x, y, z = GenCell("x", 0), GenCell("y", 0), GenCell("z", 0)
    f, g = GenCell("f", 1, x, y), GenCell("g", 1, x, z)
    al, be = GenCell("al", 2, f, f), GenCell("be", 2, g, g)
    # the entries do not meet along 1, yet a string does not check that
    bad = StringCell(1, 2, (al, be))
    assert non_globular_cells(GlobularSet(2, [(x, y, z), (f, g), (al, be, bad)])) == [bad]


def test_free_ncat_cells_equal_oracle_cells(parallel_2gset, chain_2gset, loop_2gset,
                                            theta_3gset, loop_set_2gset, swap_set_2gset,
                                            two_object_2gset):
    pinned = {(swap_set_2gset, 3): [1, 15, 585], (loop_set_2gset, 3): [1, 15, 4369]}
    for gset, bound in ((parallel_2gset, 2), (chain_2gset, 3), (loop_2gset, 3),
                        (theta_3gset, 3), (loop_set_2gset, 2), (swap_set_2gset, 2),
                        (two_object_2gset, 3), (swap_set_2gset, 3), (loop_set_2gset, 3)):
        result = free_ncat(gset, bound)
        members = _oracle_closure(gset, bound)
        for dim in range(gset.n + 1):
            assert set(result.cells_at(dim)) == members[dim]
        if (gset, bound) in pinned:
            assert [len(members[dim]) for dim in range(3)] == pinned[gset, bound]


def _split_along(cell, i):
    """The first entry of each string along ``i`` in a normal form, and the rest."""
    if cell.along == i and cell.entries:
        first, rest = cell.entries[0], cell.entries[1:]
        tail = (StringCell(i, cell.dim, rest) if rest
                else StringCell(i, cell.dim, (), boundary(first, "tgt", i)))
        return StringCell(i, cell.dim, (first,)), tail
    if cell.along == i or not cell.entries:
        return cell, cell
    lefts, rights = zip(*(_split_along(e, i) for e in cell.entries))
    return StringCell(cell.along, cell.dim, lefts), StringCell(cell.along, cell.dim, rights)


def _entry_count(cell):
    if not isinstance(cell, StringCell):
        return 0
    return len(cell.entries) + sum(_entry_count(e) for e in cell.entries)


def _assert_composites_split(gset, bound):
    """The splitting lemma behind the linear closure, on every cell it finds."""
    members = _oracle_closure(gset, bound)
    atoms = {identity_at(_embed(g), dim) for g in gset for dim in range(g.dim, gset.n + 1)}
    splits = 0
    for dim, cells in members.items():
        for cell in cells:
            composite = False
            for i in range(dim):
                left, right = _split_along(cell, i)
                if left == cell:
                    assert _atomic_along(cell, i)
                    continue
                composite = True
                assert not _atomic_along(cell, i) and _atomic_along(left, i)
                assert left in members[dim] and right in members[dim]
                assert max(_entry_count(left), _entry_count(right)) < _entry_count(cell)
                assert _compose_nested(left, right, i, bound) == cell
                splits += 1
            assert composite or cell in atoms
    return splits


def test_every_composite_splits_behind_an_atomic_left_factor(
        chain_2gset, loop_2gset, theta_3gset, loop_set_2gset, swap_set_2gset,
        two_object_2gset):
    cases = ((chain_2gset, 3), (loop_2gset, 3), (theta_3gset, 3), (loop_set_2gset, 2),
             (swap_set_2gset, 3), (two_object_2gset, 3))
    assert sum(_assert_composites_split(gset, bound) for gset, bound in cases) > 0


@settings(max_examples=10, deadline=None)
@given(tiny_2gsets(), tiny_3gsets())
def test_every_composite_splits_on_random_sets(gset2, gset3):
    for gset in (gset2, gset3):
        _assert_composites_split(gset, 2)


def _assert_boundaries_match_the_reference(cells):
    """``boundary`` equals the rebuilt reference on both sides at every
    dimension below the cell's, and a second request returns the kept object,
    building nothing."""
    requests = []
    for cell in cells:
        for side in ("src", "tgt"):
            for d in range(cell.dim):
                face = boundary(cell, side, d)
                assert face == reference_boundary(cell, side, d), (cell, side, d)
                requests.append((cell, side, d, face))
    built = []
    init = StringCell.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StringCell, "__init__", counted_init)
        for cell, side, d, face in requests:
            assert boundary(cell, side, d) is face
    assert built == []
    return len(requests)


def _boundary_cases(gset, bound):
    """The cells of ``free_ncat``, of each composition monad's ``apply`` and of the oracle."""
    yield from free_ncat(gset, bound)
    for i in range(gset.n):
        yield from CompositionMonad(i, gset.n).apply(gset, bound)
    for cells in _oracle_closure(gset, bound).values():
        yield from cells


def test_boundaries_equal_the_reference(fg_graph, arrow_graph, point_2gset, parallel_2gset,
                                        chain_2gset, loop_2gset, loop_set_2gset,
                                        swap_set_2gset, two_object_2gset, theta_3gset):
    for gset in (fg_graph, arrow_graph, point_2gset, parallel_2gset, chain_2gset, loop_2gset,
                 loop_set_2gset, swap_set_2gset, two_object_2gset, theta_3gset):
        for bound in range(4):
            assert _assert_boundaries_match_the_reference(_boundary_cases(gset, bound))


@settings(max_examples=20, deadline=None)
@given(tiny_2gsets(), tiny_3gsets(), st.integers(0, 2))
def test_boundaries_equal_the_reference_on_random_sets(gset2, gset3, bound):
    for gset in (gset2, gset3):
        assert _assert_boundaries_match_the_reference(_boundary_cases(gset, bound))


def test_the_oracle_composes_each_composable_pair_once(
        monkeypatch, fg_graph, arrow_graph, point_2gset, parallel_2gset, chain_2gset,
        loop_2gset, loop_set_2gset, swap_set_2gset, two_object_2gset, theta_3gset):
    """Top-level compositions equal the ordered pairs ``(x, y)`` of result cells
    of one dimension with ``x`` ``i``-atomic and ``tgt_i(x) == src_i(y)``."""
    compose, depth, calls = _compose_nested, [0], [0]

    def counting(a, b, i, bound):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return compose(a, b, i, bound)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(globular, "_compose_nested", counting)
    for gset in (fg_graph, arrow_graph, point_2gset, parallel_2gset, chain_2gset, loop_2gset,
                 loop_set_2gset, swap_set_2gset, two_object_2gset, theta_3gset):
        for bound in (2, 3):
            calls[0] = 0
            pairs = 0
            for m, cells in _oracle_closure(gset, bound).items():
                for i in range(m):
                    sources = Counter(boundary(y, "src", i) for y in cells)
                    pairs += sum(sources[boundary(x, "tgt", i)]
                                 for x in cells if _atomic_along(x, i))
            assert calls[0] == pairs, (gset, bound)


def _names_used(function, seen):
    """Global names read by ``function`` and by the ``distlaw.globular`` functions it calls."""
    seen.add(function)
    codes, names = [function.__code__], set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for name in sorted(names):
        callee = function.__globals__.get(name)
        if (isinstance(callee, types.FunctionType) and callee not in seen
                and callee.__module__ == "distlaw.globular"):
            names |= _names_used(callee, seen)
    return names


def test_the_oracle_does_not_use_the_composition_engine():
    engine = {"CompositionMonad", "free_ncat", "compose_series", "composition_series",
              "apply", "interchange_law"}
    for function in (_oracle_closure, brute_force_oracle, paste, reference_boundary,
                     non_globular_cells):
        assert not _names_used(function, set()) & engine
    # nor the kept faces they are compared with
    for function in (reference_boundary, non_globular_cells):
        assert not _names_used(function, set()) & {"boundary", "_face", "_faces"}


def _product_or_error(mult, cell):
    try:
        return mult(cell)
    except DistlawError as exc:
        return exc


def _pasting_disagreements(series, gset, bound):
    """The doubled-stack inputs on which some route's ``mult`` is not their
    pasting (an error is not), and how many inputs there are."""
    stack = enum_stack(series.monads * 2, gset, bound)
    assert stack
    mults = [compose_series(series, route).mult for route in all_routes(gset.n)]
    return [c for c in stack
            if any(_product_or_error(mult, c) != paste(c, gset.n) for mult in mults)], len(stack)


def test_every_route_multiplies_as_pasting(parallel_2gset, chain_2gset, loop_2gset,
                                          theta_3gset):
    for gset in (parallel_2gset, chain_2gset, loop_2gset, theta_3gset):
        assert _pasting_disagreements(composition_series(gset.n), gset, 2)[0] == []


@settings(max_examples=40, deadline=None)
@given(tiny_2gsets(), tiny_3gsets())
def test_every_route_multiplies_as_pasting_on_random_sets(gset2, gset3):
    for gset in (gset2, gset3):
        assert _pasting_disagreements(composition_series(gset.n), gset, 1)[0] == []


def _reversed_columns(grid):
    return StringCell(0, grid.dim, grid.entries[::-1])


def _each_column_reversed(grid):
    return StringCell(0, grid.dim, tuple(StringCell(1, grid.dim, col.entries[::-1])
                                         if col.entries else col for col in grid.entries))


@pytest.mark.parametrize("reverse, fixture, counts", [
    (_reversed_columns, "loop_2gset", (9996, 11571)),
    (_each_column_reversed, "chain_2gset", (184, 1747)),
], ids=["columns-reversed-on-loop", "each-column-reversed-on-chain"])
def test_pasting_catches_a_wrong_interchange(reverse, fixture, counts, request):
    # wrong laws: interchange, then reverse the grid; validate_series and
    # check_route_independence both pass the first on loop, and on chain only
    # validate_series fails the second
    def mutant(cell):
        grid = interchange_law(cell, 1, 0)
        return reverse(grid) if cell.dim > 1 and grid.entries else grid

    series = composition_series(2)
    outer, inner = series.monads
    wrong_series = DistributiveSeries("mutant", series.monads, {
        (2, 1): DistLaw("interchange-reversed", inner, outer, mutant)})
    wrong, inputs = _pasting_disagreements(wrong_series, request.getfixturevalue(fixture), 2)
    assert (len(wrong), inputs) == counts


def test_route_independence_of_the_free_strict_3_category(theta_3gset):
    series = composition_series(3)
    report = check_route_independence(series, theta_3gset, 2)
    assert report.passed and report.total_checked() > 0
    # no instance passes only because both routes raise
    reference = compose_series(series, all_routes(3)[0])
    for cell in enum_stack(series.monads * 2, theta_3gset, 2):
        try:
            reference.mult(cell)
        except DistlawError as exc:
            pytest.fail(f"reference route raised {exc!r} on {cell}")


def test_composition_series_is_a_valid_series(theta_3gset, chain_2gset):
    for gset in (theta_3gset, chain_2gset):
        report = validate_series(composition_series(gset.n), gset, 2)
        assert report.passed and report.total_checked() > 0


def test_every_route_enumerates_the_free_ncat(theta_3gset, chain_2gset, loop_2gset):
    for gset in (theta_3gset, chain_2gset, loop_2gset):
        series = composition_series(gset.n)
        cells = Counter(free_ncat(gset, 2))
        for route in all_routes(gset.n):
            assert Counter(compose_series(series, route).enumerate(gset, 2)) == cells


def test_composition_monads_keep_an_empty_top_layer():
    # with no 1-cells, only n tells the enumeration that identities are due
    gset = globular_set_from_names(1, [["v"], []], [{}], [{}])
    cells = compose_series(composition_series(1), 1).enumerate(gset, 2)
    counts = [sum(1 for c in cells if c.dim == d) for d in range(2)]
    assert counts == brute_force_oracle(gset, 2) == [1, 1]


def _count_guard_calls(monkeypatch):
    """Record every count the walk hands to ``monads._guard``."""
    import distlaw.monads
    counts = []
    guard = distlaw.monads._guard

    def counted(count, what):
        counts.append(count)
        guard(count, what)

    monkeypatch.setattr(distlaw.monads, "_guard", counted)
    return counts


def test_string_enumeration_stops_when_nothing_extends(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "data", "two_cell.gset")
    with open(path, encoding="utf-8") as handle:
        gset = load_gset(handle.read())
    expected = free_ncat(gset, 2).counts()
    walks = _count_guard_calls(monkeypatch)
    assert free_ncat(gset, 10 ** 6).counts() == expected == [2, 4, 5]
    # one walk per nonempty string: [al] along 1; f, g and three 2-cells along 0
    assert len(walks) == 6


def test_string_enumeration_stops_at_the_ceiling(monkeypatch):
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    names = [f"e{k}" for k in range(60)]
    gset = globular_set_from_names(1, [["x"], names], [dict.fromkeys(names, "x")],
                                   [dict.fromkeys(names, "x")])
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 100)
    walks = _count_guard_calls(monkeypatch)
    built = []
    init = StringCell.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(StringCell, "__init__", counted_init)
    with pytest.raises(BoundTooLarge):
        CompositionMonad(0, 1).enumerate(gset, 3)
    # 60 + 3600 + 216000 strings are due; the walk stops at the 101st
    assert len(walks) == 101
    # the identity on x, then one string per walk that fit under the ceiling
    assert len(built) == 1 + 100


def test_equal_cells_hash_equal(parallel_2gset, chain_2gset, loop_2gset, loop_set_2gset,
                                swap_set_2gset, two_object_2gset, theta_3gset, fg_graph):
    for gset in (parallel_2gset, chain_2gset, loop_2gset, loop_set_2gset, swap_set_2gset,
                 two_object_2gset, theta_3gset, fg_graph):
        hashes = {}
        # each enumeration builds its strings anew, so equal keys meet in new objects
        for bound in (2, 2, 3):
            for cell in free_ncat(gset, bound):
                assert hashes.setdefault(cell.key, hash(cell)) == hash(cell)
        assert len(hashes) == sum(free_ncat(gset, 3).counts())


def test_free_ncat_rejects_non_globular_input():
    x = GenCell("x", 0)
    y = GenCell("y", 0)
    f = GenCell("f", 1, x, y)
    g = GenCell("g", 1, y, x)
    # refused where it is built, before a set or free_ncat can hold it
    with pytest.raises(ShapeMismatch, match="^cell 'u': "):
        GenCell("u", 2, f, g)


def test_loader_round_trip(tmp_path, parallel_2gset):
    data = {
        "n": 2,
        "cells": [["x", "y"], ["f", "g"], ["al", "be"]],
        "src": [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}],
        "tgt": [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}],
    }
    loaded = load_gset(json.dumps(data))
    assert loaded.counts() == parallel_2gset.counts()
    assert set(loaded.cells_at(2)) == set(parallel_2gset.cells_at(2))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("src"), "missing field"),
    (lambda d: d["cells"][0].append("x"), "duplicate"),
    (lambda d: d["src"][0].pop("f"), "no src"),
    (lambda d: d["src"][0].update(f="nope"), "not a 0-cell"),
    (lambda d: d.update(n="two"), "non-negative integer"),
])
def test_loader_rejects_malformed_data(mutate, fragment):
    data = {
        "n": 1,
        "cells": [["x", "y"], ["f"]],
        "src": [{"f": "x"}],
        "tgt": [{"f": "y"}],
    }
    mutate(data)
    with pytest.raises(FileFormatError) as info:
        load_gset(json.dumps(data))
    assert fragment in str(info.value)


def test_loader_rejects_bad_json_and_non_mappings():
    with pytest.raises(FileFormatError):
        load_gset("{not json")
    with pytest.raises(FileFormatError):
        load_gset(json.dumps([1, 2]))


def test_loader_names_globularity_witness():
    data = {
        "n": 2,
        "cells": [["x", "y", "z"], ["f", "g"], ["al"]],
        "src": [{"f": "x", "g": "y"}, {"al": "f"}],
        "tgt": [{"f": "y", "g": "z"}, {"al": "g"}],
    }
    with pytest.raises(FileFormatError) as info:
        load_gset(json.dumps(data))
    assert "al" in str(info.value)


def _grid_strategy(gset):
    grids_10, _ = _proper_grids(gset, 2)
    return st.sampled_from(grids_10)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_transpose_involution_property(data):
    gset = globular_set_from_names(
        2,
        [["x", "y", "z"],
         ["f1", "g1", "h1", "p", "q1", "q2"],
         ["a1", "a2", "c1", "c2"]],
        [{"f1": "x", "g1": "x", "h1": "x", "p": "y", "q1": "y", "q2": "y"},
         {"a1": "f1", "a2": "g1", "c1": "p", "c2": "q1"}],
        [{"f1": "y", "g1": "y", "h1": "y", "p": "z", "q1": "z", "q2": "z"},
         {"a1": "g1", "a2": "h1", "c1": "q1", "c2": "q2"}])
    grid = data.draw(_grid_strategy(gset))
    assert padded_transpose_candidate(interchange_law(grid, 1, 0), 1, 0) == grid
