"""Finite algebras of a monad and their lifting through a distributive law.

Each diagram is a row of ``checks.run`` over the algebra's carrier and
bound; its loop skips an input whose first failed lookup lies beyond
the table's bound.
"""

from .checks import CheckReport, run
from .errors import NotAnAlgebra, _OutOfTable
from .terms import weight


class Algebra:
    """A finite algebra: carrier elements plus an action table.

    The action maps every enumerated structure over the carrier (within
    the stated bound) to a carrier element.
    """

    def __init__(self, monad, carrier, action, bound):
        self.monad = monad
        self.carrier = tuple(carrier)
        self.action = dict(action)
        self.bound = bound

    def act(self, term):
        """The table's entry for ``term``.  A missing entry raises
        ``_OutOfTable`` beyond the bound, where a diagram skips the input,
        and ``NotAnAlgebra`` within it, where the diagram fails."""
        try:
            return self.action[term]
        except KeyError:
            error = _OutOfTable if weight(term) > self.bound else NotAnAlgebra
            raise error(f"action table has no entry for {term}") from None

    def __repr__(self):
        return f"<algebra of {self.monad.name} on {len(self.carrier)} elements>"


def algebra_from_function(monad, carrier, fn, bound):
    table = {t: fn(t) for t in monad.enumerate(list(carrier), bound)}
    return Algebra(monad, carrier, table, bound)


def check_algebra(alg):
    """Unit and multiplication compatibility of the action, within bound:
    rows over A and over M(M(A)), streamed."""
    monad = alg.monad
    return CheckReport(f"algebra[{monad.name}]", sections=run([
        (f"algebra[{monad.name}]:unit", [], lambda a: alg.act(monad.unit(a)), lambda a: a),
        (f"algebra[{monad.name}]:action", [monad, monad],
         lambda t: alg.act(monad.mult(t)), lambda t: alg.act(monad.fmap(alg.act, t))),
    ], alg.carrier, alg.bound))


def lift_to_algebras(law, alg):
    """Lift the inner monad of a law to act on algebras of the outer one.

    Given a law S∘T => T∘S and an S-algebra on A, the lifted S-algebra
    lives on the T(A) normal forms within the algebra's bound and acts
    by first moving the S-structure inside through the law, then
    applying the original action under T.  The lifted structure is
    verified: it must satisfy the algebra laws, and the unit and
    multiplication of T must be algebra maps into it: rows over S(A)
    and S(T(T(A))), streamed, the latter's right leg ``lifted_action``
    under T.
    """
    S, T = law.s_monad, law.t_monad
    if alg.monad is not S:
        raise NotAnAlgebra(f"expected an algebra of {S.name}, got one of {alg.monad.name}")
    input_check = check_algebra(alg)
    if not input_check.passed:
        witness = input_check.all_witnesses()[0]
        raise NotAnAlgebra(f"input algebra violates its laws: {witness!r}")
    bound = alg.bound

    def lifted_action(s_of_t):
        return T.fmap(alg.act, law.transform(s_of_t))

    carrier = T.enumerate(list(alg.carrier), bound)
    try:
        lifted = algebra_from_function(S, carrier, lifted_action, bound)
    except _OutOfTable as exc:
        raise NotAnAlgebra(
            f"action table too small for lift at bound {bound}: {exc}") from None

    sections = [check_algebra(lifted)] + run([
        (f"lift[{law.name}]:unit-morphism", [S],
         lambda s: lifted.act(S.fmap(T.unit, s)), lambda s: T.unit(alg.act(s))),
        (f"lift[{law.name}]:mult-morphism", [S, T, T],
         lambda s: lifted.act(S.fmap(T.mult, s)),
         lambda s: T.mult(T.fmap(lifted_action, law.transform(s)))),
    ], alg.carrier, bound)
    verification = CheckReport(f"lift[{law.name}]", sections=sections)
    if not verification.passed:
        witness = verification.all_witnesses()[0]
        raise NotAnAlgebra(f"lifted structure failed verification: {witness!r}")
    return lifted
