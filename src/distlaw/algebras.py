"""Finite algebras of a monad and their lifting through a distributive law."""

from .checks import CheckReport, Witness
from .errors import NotAnAlgebra
from .monads import enum_stack
from .terms import weight


class _OutOfTable(NotAnAlgebra):
    """An action lookup beyond the table's bound (not a law failure)."""


class Algebra:
    """A finite algebra: carrier elements plus an action table.

    The action maps every enumerated structure over the carrier (within
    the stated bound) to a carrier element.  A lookup that finds no entry
    raises ``_OutOfTable`` beyond the bound and ``NotAnAlgebra`` within it.
    """

    def __init__(self, monad, carrier, action, bound):
        self.monad = monad
        self.carrier = tuple(carrier)
        self.action = dict(action)
        self.bound = bound

    def act(self, term):
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


def _compare(check_id, inputs, left_leg, right_leg):
    """Pointwise comparison that skips instances leaving the bounded table.

    An instance whose lookup misses an entry within the bound fails.
    """
    witnesses = []
    checked = 0
    for t in inputs:
        try:
            lhs = left_leg(t)
            rhs = right_leg(t)
        except _OutOfTable:
            continue
        except NotAnAlgebra as exc:
            lhs, rhs = f"error:{exc}", None
        checked += 1
        if lhs != rhs:
            witnesses.append(Witness(check_id, t, lhs, rhs))
    return CheckReport(check_id, checked=checked, witnesses=witnesses)


def check_algebra(alg):
    """Unit and multiplication compatibility of the action, within bound."""
    monad = alg.monad
    unit_law = _compare(
        f"algebra[{monad.name}]:unit",
        list(alg.carrier),
        lambda a: alg.act(monad.unit(a)),
        lambda a: a,
    )
    doubled = enum_stack([monad, monad], list(alg.carrier), alg.bound)
    assoc_law = _compare(
        f"algebra[{monad.name}]:action",
        doubled,
        lambda t: alg.act(monad.mult(t)),
        lambda t: alg.act(monad.fmap(alg.act, t)),
    )
    return CheckReport(f"algebra[{monad.name}]", sections=[unit_law, assoc_law])


def lift_to_algebras(law, alg):
    """Lift the inner monad of a law to act on algebras of the outer one.

    Given a law S∘T => T∘S and an S-algebra on A, the lifted S-algebra
    lives on the T(A) normal forms within the algebra's bound and acts
    by first moving the S-structure inside through the law, then
    applying the original action under T.  The lifted structure is
    verified: it must satisfy the algebra laws, and the unit and
    multiplication of T must be algebra maps into it.
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

    problems = [check_algebra(lifted)]
    problems.append(_compare(
        f"lift[{law.name}]:unit-morphism",
        S.enumerate(list(alg.carrier), bound),
        lambda s: lifted.act(S.fmap(T.unit, s)),
        lambda s: T.unit(alg.act(s)),
    ))

    def doubled_action(s_term):
        swapped = law.transform(s_term)
        return T.fmap(lambda inner: T.fmap(alg.act, law.transform(inner)), swapped)

    problems.append(_compare(
        f"lift[{law.name}]:mult-morphism",
        S.enumerate(enum_stack([T, T], list(alg.carrier), bound), bound),
        lambda s: lifted.act(S.fmap(T.mult, s)),
        lambda s: T.mult(doubled_action(s)),
    ))
    verification = CheckReport(f"lift[{law.name}]", sections=problems)
    if not verification.passed:
        witness = verification.all_witnesses()[0]
        raise NotAnAlgebra(f"lifted structure failed verification: {witness!r}")
    return lifted
