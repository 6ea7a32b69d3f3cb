#!/usr/bin/env python3
"""Free strict n-categories from globular sets, one composition at a time.

Composition along dimension i is its own monad: it fills every higher
dimension with strings of i-composable cells.  Interchange transposes a
stack of rows into a row of columns, and that transposition is the
distributive law letting the composition monads combine into the free
strict n-category monad.  A brute-force closure over binary composites
and identities independently reproduces the same cells.
"""

from distlaw import (CompositionMonad, StringCell, brute_force_oracle,
                     check_interchange, free_ncat, globular_set_from_names,
                     interchange_law, padded_transpose_candidate)
from distlaw.errors import RaggedGrid

# Two composable stacks of 2-cells over a path of three objects:
#   a1: f1 => g1, a2: g1 => h1   (all between x and y)
#   c1: p  => q1, c2: q1 => q2   (all between y and z)
G = globular_set_from_names(
    2,
    [["x", "y", "z"],
     ["f1", "g1", "h1", "p", "q1", "q2"],
     ["a1", "a2", "c1", "c2"]],
    [{"f1": "x", "g1": "x", "h1": "x", "p": "y", "q1": "y", "q2": "y"},
     {"a1": "f1", "a2": "g1", "c1": "p", "c2": "q1"}],
    [{"f1": "y", "g1": "y", "h1": "y", "p": "z", "q1": "z", "q2": "z"},
     {"a1": "g1", "a2": "h1", "c1": "q1", "c2": "q2"}])

print("free horizontal composition only (dimension 0):")
print("  1-cells:", [str(c) for c in CompositionMonad(0, 2).apply(G, 2).cells_at(1)])

cells = {c.name: c for c in G.cells_at(2)}
row = lambda *names: StringCell(0, 2, tuple(cells[n] for n in names))
grid = StringCell(1, 2, (row("a1", "c1"), row("a2", "c2")))
print("\na 2x2 grid, stacked as two rows:", grid)
print("interchange transposes it into two columns:", interchange_law(grid, 1, 0))

ragged = StringCell(1, 2, (row("a1", "c1"), row("a2")))
try:
    interchange_law(ragged, 1, 0)
except RaggedGrid as exc:
    print("\nragged grids are impossible to transpose:", exc)

# There is no law in the other direction: padding short columns with
# identities typechecks but breaks the coherence diagrams.
from distlaw import check_globular_distlaw
candidate = lambda c: padded_transpose_candidate(c, 1, 0)
verdict = check_globular_distlaw(0, 1, candidate, G, 2, title="pad-candidate")
witness = next(w for w in verdict.all_witnesses()
               if "mult" in w.check_id
               and isinstance(w.left, StringCell) and isinstance(w.right, StringCell))
print(f"\npadding candidate: {verdict.verdict}")
print("  a ragged input whose two evaluations disagree:", witness.input)
print("  one leg gives:", witness.left)
print("  the other:    ", witness.right)

print("\ninterchange itself passes all four diagrams:",
      check_interchange(1, 0, G, 2).verdict)

print("\nfree strict 2-category cells per dimension:", free_ncat(G, 2).counts())
print("independent composite-closure oracle:        ", brute_force_oracle(G, 2))
