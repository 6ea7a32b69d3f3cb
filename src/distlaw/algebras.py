"""Finite algebras of a monad and their lifting through a distributive law."""

from .checks import CheckReport, Witness
from .errors import NotAnAlgebra
from .monads import _stream_stack
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

    The left leg runs, then the right.  An instance whose first failed
    lookup lies beyond the bound is skipped; once a lookup misses an
    entry within the bound, the instance fails, and its witness keeps
    each leg's own value or error.
    """
    witnesses = []
    checked = 0
    for t in inputs:
        values, failed = [], False
        for leg in (left_leg, right_leg):
            try:
                values.append(leg(t))
            except NotAnAlgebra as exc:
                if isinstance(exc, _OutOfTable) and not failed:
                    break
                values.append(f"error:{exc}")
                failed = True
        else:
            checked += 1
            if failed or values[0] != values[1]:
                witnesses.append(Witness(check_id, t, *values))
    return CheckReport(check_id, checked=checked, witnesses=witnesses)


def _diagrams(alg, rows):
    """A ``_compare`` per row ``(check_id, stack, left, right)``, streamed over ``alg``."""
    return [_compare(check_id, _stream_stack(stack, list(alg.carrier), alg.bound), left, right)
            for check_id, stack, left, right in rows]


def check_algebra(alg):
    """Unit and multiplication compatibility of the action, within bound:
    rows over A and over M(M(A)), streamed."""
    monad = alg.monad
    return CheckReport(f"algebra[{monad.name}]", sections=_diagrams(alg, [
        (f"algebra[{monad.name}]:unit", [], lambda a: alg.act(monad.unit(a)), lambda a: a),
        (f"algebra[{monad.name}]:action", [monad, monad],
         lambda t: alg.act(monad.mult(t)), lambda t: alg.act(monad.fmap(alg.act, t))),
    ]))


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

    sections = [check_algebra(lifted)] + _diagrams(alg, [
        (f"lift[{law.name}]:unit-morphism", [S],
         lambda s: lifted.act(S.fmap(T.unit, s)), lambda s: T.unit(alg.act(s))),
        (f"lift[{law.name}]:mult-morphism", [S, T, T],
         lambda s: lifted.act(S.fmap(T.mult, s)),
         lambda s: T.mult(T.fmap(lifted_action, law.transform(s)))),
    ])
    verification = CheckReport(f"lift[{law.name}]", sections=sections)
    if not verification.passed:
        witness = verification.all_witnesses()[0]
        raise NotAnAlgebra(f"lifted structure failed verification: {witness!r}")
    return lifted
