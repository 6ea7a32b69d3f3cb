#!/usr/bin/env python3
"""Verifying a distributive series and composing it along every route.

The free rig monad decomposes into four monads: adjoin zero, free
commutative semigroup (addition), adjoin unit, free semigroup
(multiplication).  Six pairwise distributive laws connect them; four
Yang-Baxter hexagons make the laws compatible; and then every binary
bracketing of the four monads yields the same composite monad.
"""

from distlaw import (Carrier, DistLaw, DistributiveSeries, RIG_SERIES, ZERO,
                     all_routes, check_route_independence, check_yang_baxter,
                     compose_series, validate_series)

X = Carrier.of_size(1)

print("The rig series:", [m.name for m in RIG_SERIES.monads])

report = validate_series(RIG_SERIES, X, bound=2)
print(f"full validation: {report.verdict} "
      f"({report.total_checked()} diagram instances)")

for triple in ((3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)):
    hexagon = check_yang_baxter(RIG_SERIES, *triple, X, 3)
    print(f"  Yang-Baxter {triple}: {hexagon.verdict} on {hexagon.checked} inputs")

routes = all_routes(len(RIG_SERIES))
print(f"\nall {len(routes)} bracketings of the composite agree:")
outcome = check_route_independence(RIG_SERIES, X, bound=2)
print(f"  route independence: {outcome.verdict}")

# The composite itself is one monad; its unit wraps a generator in
# every layer and its multiplication flattens through the laws.
rig = compose_series(RIG_SERIES, (((1, 2), 3), 4))
x = X.gen("a")
print("\nunit of the composite at a generator:", rig.unit(x))

# Swap one law for garbage and the checker pinpoints the break.
collapse = DistLaw("collapse-to-zero", RIG_SERIES.monad(2), RIG_SERIES.monad(1),
                   lambda term: ZERO)
laws = dict(RIG_SERIES.laws)
laws[(2, 1)] = collapse
broken = DistributiveSeries("rig-broken", RIG_SERIES.monads, laws)
bad = validate_series(broken, X, bound=2)
witness = bad.all_witnesses()[0]
print(f"\nsabotaged series: {bad.verdict}")
print(f"  first failing diagram: {witness.check_id}")
print(f"  input {witness.input}  ->  {witness.left} versus {witness.right}")
