"""Finite globular sets and the free composition monads on them.

Cells are self-contained values: a generator cell carries its boundary
cells, and a string cell is a list of cells composed along one
dimension, or an empty string anchored at the cell it is the identity
of.  A cell's faces (its ``(dim-1)``-boundaries) are therefore computed
structurally, once per cell, and kept on it; deeper boundaries are
faces of faces:

* above the composition dimension, the face of a string is taken entry
  by entry (same length);
* at it, the source is the first entry's face and the target the last
  entry's (the anchor when the string is empty).

Generators are globular by construction: a generator's source and
target are cells one dimension down and, from dimension two, parallel
(``s∘s = s∘t`` and ``t∘s = t∘t``).  Each face was checked when it was
built, so the axiom holds at every depth and nothing checks it again.

The monad for composition along dimension ``i`` leaves dimensions up to
``i`` alone and fills higher dimensions with strings of ``i``-composable
cells, including one empty string per ``i``-cell.  Composing these
monads innermost-first over descending dimensions yields free strict
n-categories; the law that lets adjacent layers swap is interchange,
implemented as transposition of the rectangular grids that boundary
matching forces.  The composition monads are ``MonadSpec``s whose
carriers are globular sets, so ``composition_series`` is an ordinary
distributive series and the checkers of ``series`` apply to cells
unchanged.
"""

import json

from .errors import (ComposabilityError, DimensionError, FileFormatError,
                     IndexOrder, ShapeMismatch, RaggedGrid)
from .laws import DistLaw
from .monads import MonadSpec, Stream, _check_bound, _guard, _walks
from .series import DistributiveSeries, check_distlaw, check_yang_baxter
from .terms import Keyed, collector_paused


class Cell(Keyed):
    """Base of generator and string cells."""

    __slots__ = ("dim", "_faces")

    def _seal(self, key, dim, shallow, faces=None):
        """Hash ``shallow`` (see ``Keyed``), not the nested key."""
        self._key = key
        self._hash = hash(shallow)
        self.dim = dim
        self._faces = faces

    def _face(self, tgt):
        """The ``(dim-1)``-boundary, the target if ``tgt`` else the source: built once, kept."""
        faces = self._faces or [None, None]
        if faces[tgt] is None:
            faces[tgt] = self._make_face(tgt)
            self._faces = faces
        return faces[tgt]


class GenCell(Cell):
    """A generating cell with direct references to its source and target, checked parallel."""

    __slots__ = ("name", "src", "tgt")

    def __init__(self, name, dim, src=None, tgt=None):
        self.name = name
        self.src = src
        self.tgt = tgt
        if dim == 0 and src is None and tgt is None:
            self._seal(("g", 0, name, None, None), 0, ("g", 0, name))
            return
        if not (isinstance(src, Cell) and isinstance(tgt, Cell)
                and src.dim == tgt.dim == dim - 1):
            raise ShapeMismatch(f"cell {name!r}: source {src!r} and target {tgt!r}"
                                f" are not cells of dimension {dim - 1}")
        if dim > 1 and (src._face(False) != tgt._face(False) or src._face(True) != tgt._face(True)):
            raise ShapeMismatch(f"cell {name!r}: source {src} and target {tgt} are not parallel")
        self._seal(("g", dim, name, src._key, tgt._key), dim,
                   ("g", dim, name, src._hash, tgt._hash), (src, tgt))

    def __str__(self):
        return self.name


class StringCell(Cell):
    """A string of ``dim``-cells composed along dimension ``along``.

    An empty string is the iterated identity on its anchor, a cell of
    dimension ``along``.
    """

    __slots__ = ("along", "entries", "anchor")

    def __init__(self, along, dim, entries, anchor=None):
        if not 0 <= along < dim:
            raise DimensionError(
                f"a string along {along} must live strictly above that dimension, got {dim}")
        entries = tuple(entries)
        keys, hashes = [], ["s", dim, along]
        e = anchor  # what the error below names when the string is empty
        try:
            for e in entries:
                if e.dim != dim:
                    raise ShapeMismatch(f"entry {e} has dimension {e.dim}, expected {dim}")
                keys.append(e._key)
                hashes.append(e._hash)
            if entries:
                assert anchor is None
                keys = tuple(keys)
            elif anchor is None or anchor.dim != along:
                raise ShapeMismatch(f"empty string along {along} needs an anchor of that dimension")
            else:
                keys = ("anchor", anchor._key)
                hashes += ("anchor", anchor._hash)
        except AttributeError:
            raise ShapeMismatch(f"not a cell: {e!r}") from None
        self.along = along
        self.entries = entries
        self.anchor = anchor
        self._seal(("s", dim, along, keys), dim, tuple(hashes))

    def _make_face(self, tgt):
        """Entrywise above ``along``; at it, the first or last entry's face, or the anchor."""
        if self.dim - 1 > self.along:
            return StringCell(self.along, self.dim - 1,
                              tuple([e._face(tgt) for e in self.entries]), self.anchor)
        return self.entries[-1 if tgt else 0]._face(tgt) if self.entries else self.anchor

    def __str__(self):
        if not self.entries:
            return f"[~{self.anchor}]^{self.dim}_{self.along}"
        return "[" + ";".join(str(e) for e in self.entries) + f"]_{self.along}"


def boundary(cell, side, d):
    """Iterated boundary down to dimension ``d``, below the cell's own, face by kept face."""
    assert side in ("src", "tgt")
    if not isinstance(cell, Cell):
        raise ShapeMismatch(f"not a cell: {cell!r}")
    if not 0 <= d < cell.dim:
        raise DimensionError(f"boundary dimension {d} must be in 0..{cell.dim - 1}")
    while cell.dim > d:
        cell = cell._face(side == "tgt")
    return cell


class GlobularSet:
    """A finite tower of cell lists, layer ``m`` holding ``m``-cells, with structurally
    computed boundaries; a generating cell's faces lie in the layer below."""

    def __init__(self, n, cells):
        cells = [tuple(layer) for layer in cells]
        assert len(cells) == n + 1
        for m, layer in enumerate(cells):
            below = set(cells[m - 1]) if m and any(type(c) is GenCell for c in layer) else None
            for cell in layer:
                if cell.dim != m:
                    raise ShapeMismatch(f"cell {str(cell)!r}: dimension {cell.dim}, in layer {m}")
                if below is not None and type(cell) is GenCell and not {cell.src, cell.tgt} <= below:
                    raise ShapeMismatch(f"cell {cell.name!r}: a face is not in layer {m - 1}")
        self.n = n
        self.cells = cells

    def cells_at(self, m):
        return self.cells[m]

    def __iter__(self):
        for layer in self.cells:
            yield from layer

    def counts(self):
        return [len(layer) for layer in self.cells]

    def maps(self):
        """The maps out of the set that a naturality row runs over: none yet."""
        return []

    def __repr__(self):
        return f"<{self.n}-globular set, counts {self.counts()}>"


def globular_set_from_names(n, cells, src, tgt):
    """Build generator cells from name tables; a cell that is not globular is a format error."""
    if len(cells) != n + 1:
        raise FileFormatError(f"expected {n + 1} cell layers, got {len(cells)}")
    if len(src) != n or len(tgt) != n:
        raise FileFormatError(f"expected {n} src and tgt maps, got {len(src)}/{len(tgt)}")
    layers = []
    for m, names in enumerate(cells):
        if len(set(names)) != len(names):
            raise FileFormatError(f"duplicate cell names in dimension {m}")
        layer = {}
        if m == 0:
            for name in names:
                layer[name] = GenCell(name, 0)
        else:
            below = layers[m - 1]
            for name in names:
                for mapping, label in ((src[m - 1], "src"), (tgt[m - 1], "tgt")):
                    if name not in mapping:
                        raise FileFormatError(f"cell {name!r} has no {label} at dimension {m}")
                    if mapping[name] not in below:
                        raise FileFormatError(
                            f"cell {name!r}: {label} {mapping[name]!r} is not a {m - 1}-cell")
                try:
                    layer[name] = GenCell(name, m, below[src[m - 1][name]],
                                          below[tgt[m - 1][name]])
                except ShapeMismatch as exc:
                    raise FileFormatError(str(exc)) from None
        layers.append(layer)
    return GlobularSet(n, [tuple(layer.values()) for layer in layers])


def _is_name(value):
    return isinstance(value, str)


def _list_of(value, test):
    return isinstance(value, list) and all(test(x) for x in value)


def load_gset(text):
    """Load the structured text format: fields n, cells, src, tgt.

    ``n`` is a non-negative integer, ``cells`` a list of lists of names,
    ``src`` and ``tgt`` lists of name-to-name mappings; a name is a string.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FileFormatError(f"not valid structured text: {exc}") from None
    if not isinstance(data, dict):
        raise FileFormatError("top level must be a mapping")
    for field in ("n", "cells", "src", "tgt"):
        if field not in data:
            raise FileFormatError(f"missing field {field!r}")
    n = data["n"]
    if type(n) is not int or n < 0:
        raise FileFormatError("field 'n' must be a non-negative integer")
    if not _list_of(data["cells"], lambda layer: _list_of(layer, _is_name)):
        raise FileFormatError("field 'cells' must be a list of lists of names")
    for field in ("src", "tgt"):
        if not _list_of(data[field], lambda m: isinstance(m, dict)
                        and all(_is_name(x) for pair in m.items() for x in pair)):
            raise FileFormatError(f"field {field!r} must be a list of name-to-name mappings")
    return globular_set_from_names(n, data["cells"], data["src"], data["tgt"])


def _nested(cell, outer, inner, what):
    """The entries of a string along ``outer`` whose entries are strings along ``inner``."""
    if not isinstance(cell, StringCell) or cell.along != outer:
        raise ShapeMismatch(f"{what}: {cell} is not a string along {outer}")
    for entry in cell.entries:
        if not isinstance(entry, StringCell) or entry.along != inner:
            raise ShapeMismatch(f"{what}: entry {entry} is not a string along {inner}")
    return cell.entries


class CompositionMonad(MonadSpec):
    """The monad composing cells freely along dimension ``i`` of n-globular sets.

    Its carriers are n-globular sets, given as a ``GlobularSet`` or as
    any iterable of cells of dimension at most ``n``.  ``n`` is part of
    the monad: a flat cell list cannot tell an empty top layer from a
    missing one.
    """

    def __init__(self, i, n):
        if not 0 <= i < n:
            raise DimensionError(f"composition dimension {i} must be in 0..{n - 1}")
        self.i = i
        self.n = n
        self.name = f"compose-along-{i}"

    def unit(self, cell):
        if cell.dim <= self.i:
            return cell
        return StringCell(self.i, cell.dim, (cell,))

    def mult(self, cell):
        i = self.i
        if cell.dim <= i:
            return cell
        entries = _nested(cell, i, i, f"mult along {i}")
        if not entries:
            return cell
        flat = [c for entry in entries for c in entry.entries]
        if not flat:
            anchors = [entry.anchor for entry in entries]
            if any(a != anchors[0] for a in anchors):
                raise ComposabilityError(
                    f"flattening identities with different anchors: {anchors}")
            return StringCell(i, cell.dim, (), anchors[0])
        for left, right in zip(flat, flat[1:]):
            if boundary(left, "tgt", i) != boundary(right, "src", i):
                raise ComposabilityError(
                    f"flattened entries {left} and {right} do not meet along {i}")
        return StringCell(i, cell.dim, tuple(flat))

    def fmap(self, f, cell):
        if cell.dim <= self.i:
            return f(cell)
        if not isinstance(cell, StringCell) or cell.along != self.i:
            raise ShapeMismatch(f"fmap along {self.i}: {cell} is not a string along {self.i}")
        if not cell.entries:
            return StringCell(self.i, cell.dim, (), f(cell.anchor))
        return StringCell(self.i, cell.dim, tuple(f(e) for e in cell.entries))

    def apply(self, carrier, bound):
        """The carrier's cells and, in each dimension above ``i``, the strings
        of length up to ``bound``: walks in the graph of the dimension's cells
        and their ``i``-boundaries, kept as an n-globular set."""
        _check_bound(bound)
        i = self.i
        layers = [[] for _ in range(self.n + 1)]
        for cell in carrier:
            if not isinstance(cell, Cell):
                raise ShapeMismatch(f"not a cell: {cell!r}")
            if cell.dim > self.n:
                raise DimensionError(f"{cell} lies above dimension {self.n} of {self.name}")
            layers[cell.dim].append(cell)
        for m in range(i + 1, self.n + 1):
            starting_at = {}
            for c in layers[m]:
                starting_at.setdefault(boundary(c, "src", i), []).append((c, 1))
            firsts = [(c, 1) for c in layers[m]]
            after = {c: starting_at.get(boundary(c, "tgt", i), ()) for c in layers[m]}
            walks = _walks(lambda r: firsts, lambda c, r: after[c], bound, self.name, 1)
            cells = [StringCell(i, m, (), a) for a in layers[i]]
            cells.extend(StringCell(i, m, walk) for walk in walks)
            layers[m] = cells
        return GlobularSet(self.n, layers)

    def stream(self, domain, bound):
        cells = self.apply(domain, bound)
        return Stream(cells, None, lambda enough=None: sum(cells.counts()))


def interchange_law(cell, i, j):
    """Transpose a string-along-``i`` of strings-along-``j`` (i > j).

    Boundary matching forces the inner strings to share one length, so
    the cell is a rectangular grid; the result nests the other way.
    Degenerate grids hand identities through via anchors.  A ragged
    input (only constructible by bypassing composability) is rejected:
    it is exactly the shape the opposite direction would need to handle.
    """
    if not i > j:
        raise IndexOrder(f"interchange needs i > j, got ({i},{j})")
    if cell.dim <= i:
        return cell
    rows = _nested(cell, i, j, "interchange")
    if not rows:
        anchor = cell.anchor
        if not isinstance(anchor, StringCell) or anchor.along != j:
            raise ShapeMismatch(f"interchange: anchor {anchor} is not a string along {j}")
        if not anchor.entries:
            return StringCell(j, cell.dim, (), anchor.anchor)
        return StringCell(j, cell.dim,
                          tuple(StringCell(i, cell.dim, (), a) for a in anchor.entries))
    lengths = {len(r.entries) for r in rows}
    if len(lengths) != 1:
        raise RaggedGrid(f"inner strings have lengths {sorted(lengths)}")
    width = lengths.pop()
    if width == 0:
        anchors = [r.anchor for r in rows]
        if any(a != anchors[0] for a in anchors):
            raise ComposabilityError(f"stacked identities with different anchors: {anchors}")
        return StringCell(j, cell.dim, (), anchors[0])
    columns = [StringCell(i, cell.dim, tuple(r.entries[col] for r in rows))
               for col in range(width)]
    return StringCell(j, cell.dim, tuple(columns))


def identity_cell(cell):
    """The identity one dimension up, inflated componentwise."""
    if isinstance(cell, StringCell):
        if not cell.entries:
            return StringCell(cell.along, cell.dim + 1, (), cell.anchor)
        return StringCell(cell.along, cell.dim + 1,
                          tuple(identity_cell(e) for e in cell.entries))
    return StringCell(cell.dim, cell.dim + 1, (), cell)


def identity_at(cell, dim):
    while cell.dim < dim:
        cell = identity_cell(cell)
    if cell.dim != dim:
        raise DimensionError(f"cannot lower {cell} to dimension {dim}")
    return cell


def padded_transpose_candidate(cell, i, j):
    """The would-be opposite interchange: pad short columns, then transpose.

    Given a string-along-``j`` of strings-along-``i`` whose heights vary,
    extend every column to the maximum height by appending identities on
    its target boundary, then transpose.  It typechecks, but it is not a
    distributive law; the adapted checker exhibits failing diagrams.
    """
    if not i > j:
        raise IndexOrder(f"padding candidate needs i > j, got ({i},{j})")
    if cell.dim <= i:
        return cell
    columns = _nested(cell, j, i, "padding candidate")
    if not columns:
        return StringCell(i, cell.dim, (), StringCell(j, i, (), cell.anchor))
    height = max(len(c.entries) for c in columns)
    if height == 0:
        anchors = tuple(c.anchor for c in columns)
        return StringCell(i, cell.dim, (), StringCell(j, i, anchors))
    padded = []
    for c in columns:
        pad = identity_at(boundary(c, "tgt", i), cell.dim)
        padded.append(c.entries + (pad,) * (height - len(c.entries)))
    rows = [StringCell(j, cell.dim, tuple(col[s] for col in padded))
            for s in range(height)]
    return StringCell(i, cell.dim, tuple(rows))


@collector_paused
def free_ncat(gset, bound):
    """Free strict n-category: apply the monads of ``composition_series``, innermost first."""
    _check_bound(bound)
    for monad in reversed(composition_series(gset.n).monads):
        gset = monad.apply(gset, bound)
    return gset


def _embed(cell):
    """Fully nested singleton form of a generating cell."""
    out = cell
    for lay in range(cell.dim - 1, -1, -1):
        out = StringCell(lay, cell.dim, (out,))
    return out


def _compose_nested(a, b, i, bound):
    """Concatenate two nested normal forms at layer ``i`` (zip above it).

    Only the strings at layer ``i`` grow, so the bound is tested exactly
    where they are concatenated: ``None`` when one would outgrow it.
    """
    if not (isinstance(a, StringCell) and isinstance(b, StringCell)
            and a.along == b.along):
        raise ShapeMismatch(f"cannot compose {a} with {b}")
    j = a.along
    if j == i:
        if not a.entries:
            return b
        if not b.entries:
            return a
        if len(a.entries) + len(b.entries) > bound:
            return None
        return StringCell(i, a.dim, a.entries + b.entries)
    if not a.entries and not b.entries:
        return a
    if len(a.entries) != len(b.entries):
        raise ComposabilityError(f"layer-{j} lengths differ between {a} and {b}")
    parts = []
    for x, y in zip(a.entries, b.entries):
        part = _compose_nested(x, y, i, bound)
        if part is None:
            return None
        parts.append(part)
    return StringCell(j, a.dim, tuple(parts))


def _atomic_along(cell, i):
    """Whether every string along ``i`` in a nested normal form has at most one entry."""
    if not isinstance(cell, StringCell) or cell.along > i:
        return True
    if cell.along == i:
        return len(cell.entries) <= 1
    return all(_atomic_along(e, i) for e in cell.entries)


def _oracle_closure(gset, bound):
    """All formal composites of embedded generators and identities.

    The least set of normal forms that holds the embedded generators and
    is closed under identities and binary composition along every
    dimension, keeping only forms whose string layers stay within the
    bound.  Composition acts directly on normal forms: concatenation at
    the composition layer, entrywise descent above it.

    The recursion is linear: a composite along ``i`` is formed only when
    its left factor is ``i``-atomic, that is, every string along ``i`` in
    it has at most one entry.  This reaches the same fixpoint.  Take a
    cell ``c`` of the bounded free n-category in which some string along
    ``i`` has two or more entries.  Its left factor keeps the first entry
    of each string along ``i`` (an identity where a string is empty) and
    its right factor the rest (an identity on the first entry's target
    where only one entry was left).  Then ``c`` is the left factor
    composed along ``i`` with the right one; the left factor is
    ``i``-atomic; both have fewer entries than ``c`` and no string longer
    than ``c``'s, so both are cells of the bounded free n-category too.
    A cell that is atomic along every dimension is an embedded generator
    or an identity on one.  By induction on the number of entries, the
    closure reaches every cell of the bounded free n-category, which is
    all that unrestricted composition reaches.

    The fixpoint is one worklist.  A cell taken off it adds its identity
    and, along each ``i`` below its dimension ``m``: is indexed under
    ``(m, i, src_i)``; if ``i``-atomic, composes on the left of the
    partners indexed under its ``tgt_i``; composes on the right of the
    ``i``-atomic partners indexed under its ``src_i``; and only then, if
    ``i``-atomic, is indexed under ``(m, i, tgt_i)``.  So every
    composable pair, a cell with itself included, is composed exactly
    once, when its later cell comes off the list.  Composing along ``i``
    lengthens only the strings along ``i`` that it concatenates, and
    identities lengthen none, so ``_compose_nested`` prunes exactly: it
    gives up at the first concatenation past the bound, before building
    the cell.
    Along ``i > 0``, equal ``i``-boundaries, taken entry by entry, already
    force the equal lengths that composing needs.  An embedded generator
    of dimension one or more holds strings of length one, so at bound 0
    only the objects are embedded.
    """
    _check_bound(bound)
    members = {m: set() for m in range(gset.n + 1)}
    labels = [f"cells of dimension {m} at bound {bound}" for m in members]
    by_src, atomic_by_tgt, todo = {}, {}, []

    def add(cell):
        if cell is not None and cell not in members[cell.dim]:
            members[cell.dim].add(cell)
            _guard(len(members[cell.dim]), labels[cell.dim])
            todo.append(cell)

    for cell in gset:
        if bound or not cell.dim:
            add(_embed(cell))
    while todo:
        a = todo.pop()
        m = a.dim
        if m < gset.n:
            add(identity_cell(a))
        for i in range(m):
            src, tgt = boundary(a, "src", i), boundary(a, "tgt", i)
            atomic = _atomic_along(a, i)
            by_src.setdefault((m, i, src), []).append(a)
            for b in (by_src.get((m, i, tgt), ()) if atomic else ()):
                add(_compose_nested(a, b, i, bound))
            for b in atomic_by_tgt.get((m, i, src), ()):
                add(_compose_nested(b, a, i, bound))
            if atomic:
                atomic_by_tgt.setdefault((m, i, tgt), []).append(a)
    return members


@collector_paused
def oracle_cells(gset, bound):
    """Per dimension, the set of distinct formal-composite normal forms (``_oracle_closure``)."""
    return _oracle_closure(gset, bound)


def brute_force_oracle(gset, bound):
    """Per-dimension counts of ``oracle_cells``."""
    return [len(cells) for cells in oracle_cells(gset, bound).values()]


def composition_series(n):
    """The composition monads of n-globular sets, dimension d at position d+1.

    The law at each pair is interchange, so every route through the
    series composes the free strict n-category monad.
    """
    monads = [CompositionMonad(d, n) for d in range(n)]
    laws = {(p, q): DistLaw(f"interchange[{p - 1}over{q - 1}]", monads[p - 1], monads[q - 1],
                            lambda c, i=p - 1, j=q - 1: interchange_law(c, i, j))
            for p in range(2, n + 1) for q in range(1, p)}
    return DistributiveSeries(f"composition-{n}", monads, laws)


def check_globular_distlaw(s_dim, t_dim, transform, gset, bound, title=None):
    """The four coherence diagrams for a cellwise law T_s∘T_t => T_t∘T_s."""
    law = DistLaw(title or f"globular-distlaw[{s_dim}over{t_dim}]",
                  CompositionMonad(s_dim, gset.n), CompositionMonad(t_dim, gset.n), transform)
    return check_distlaw(law, gset, bound)


def check_interchange(i, j, gset, bound):
    """The four coherence diagrams for the interchange transposition (i > j)."""
    return check_distlaw(composition_series(gset.n).law(i + 1, j + 1), gset, bound)


def check_globular_yang_baxter(i, j, k, gset, bound):
    """Hexagon for the composition monads along i > j > k, cellwise."""
    return check_yang_baxter(composition_series(gset.n), i + 1, j + 1, k + 1, gset, bound)
