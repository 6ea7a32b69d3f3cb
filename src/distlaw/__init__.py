"""Executable monads on finite carriers and their distributive laws.

The package verifies, by bounded exhaustive enumeration, the axioms that
let several monads compose into one: pairwise distributive laws and the
Yang-Baxter condition for every triple.  It ships the monads that
assemble free rings and rigs, an expression normaliser driven by the
composite multiplications, and the free composition monads on globular
sets whose interchange laws build free strict n-categories.
"""

from .algebras import Algebra, algebra_from_function, check_algebra, lift_to_algebras
from .checks import CheckReport, Witness, check_monad_laws, check_monad_naturality
from .errors import (BoundTooLarge, ComposabilityError, DimensionError,
                     DistlawError, FileFormatError, IndexOrder, NotAnAlgebra,
                     ParseError, RaggedGrid, ShapeMismatch, SplitOutOfRange,
                     UnknownGenerator, UnsupportedNode)
from .expr import parse_expr
from .globular import (CompositionMonad, GenCell, GlobularSet, StringCell,
                       boundary, brute_force_oracle, check_globular_distlaw,
                       check_globular_yang_baxter, check_interchange,
                       composition_series, free_ncat, globular_set_from_names,
                       identity_cell, interchange_law, load_gset, oracle_cells,
                       padded_transpose_candidate)
from .laws import REGISTERED_LAWS, DistLaw
from .monads import (ADJOIN_UNIT, ADJOIN_ZERO, FREE_ABELIAN_GROUP,
                     FREE_COMM_MONOID, FREE_COMM_SEMIGROUP, FREE_MONOID,
                     FREE_SEMIGROUP, IDENTITY, ZOO, MonadSpec, enum_stack)
from .normalize import (RIG_SERIES, RING2_SERIES, RING3_SERIES, SERIES, THEORIES,
                        abelianize, format_normal, normalize_expr)
from .series import (CompositeMonad, DistributiveSeries, all_routes,
                     check_distlaw, check_route_independence,
                     check_yang_baxter, compose_series, derive_block_law,
                     parse_route, validate_series)
from .terms import (Carrier, Gen, Inj, IntComb, MSet, ONE, One, Seq, Term,
                    ZERO, Zero, functions_between)
