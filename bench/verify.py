"""Independent oracles for the benchmark's output checks.

Nothing here calls into distlaw.  Expressions are the benchmark's own
tuple ASTs; normal forms are read through their public attributes
(``pairs``, ``items``, ``inner``, ``name``) and the class name, then
evaluated directly in 2x2 integer matrices (a noncommutative ring, so
word order matters) or in the two-element Boolean rig.

AST nodes: ``("var", name)``, ``("lit", k)`` with k >= 0, and
``("add", l, r)``, ``("sub", l, r)``, ``("mul", l, r)``, ``("neg", x)``.
"""

from collections import Counter
from itertools import product
from math import comb, factorial

MAT_ID = ((1, 0), (0, 1))
MAT_ZERO = ((0, 0), (0, 0))


def mat_add(a, b):
    return ((a[0][0] + b[0][0], a[0][1] + b[0][1]),
            (a[1][0] + b[1][0], a[1][1] + b[1][1]))


def mat_scale(k, a):
    return ((k * a[0][0], k * a[0][1]), (k * a[1][0], k * a[1][1]))


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def random_matrix(rng):
    return tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(2))


# --- expressions --------------------------------------------------------------

def render(node):
    """Source text the distlaw parser accepts; fully parenthesised."""
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "lit":
        return str(node[1])
    if kind == "neg":
        return f"-({render(node[1])})"
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return f"({render(node[1])}{op}{render(node[2])})"


def variables(node):
    if node[0] == "var":
        return {node[1]}
    if node[0] == "lit":
        return set()
    return set().union(*(variables(child) for child in node[1:]))


def eval_matrix(node, env):
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "lit":
        return mat_scale(node[1], MAT_ID)
    if kind == "neg":
        return mat_scale(-1, eval_matrix(node[1], env))
    left, right = eval_matrix(node[1], env), eval_matrix(node[2], env)
    if kind == "add":
        return mat_add(left, right)
    if kind == "sub":
        return mat_add(left, mat_scale(-1, right))
    return mat_mul(left, right)


def eval_bool(node, env):
    """The Boolean rig: or is addition, and is multiplication."""
    kind = node[0]
    if kind == "var":
        return env[node[1]]
    if kind == "lit":
        return 1 if node[1] else 0
    left, right = eval_bool(node[1], env), eval_bool(node[2], env)
    if kind == "add":
        return left | right
    if kind == "mul":
        return left & right
    raise ValueError(f"{kind} is not a rig operation")


# --- normal forms as plain data -----------------------------------------------

def _names(word):
    return tuple(g.name for g in word.items)


def ring_words(nf):
    """A ring2/ring3 normal form as {word (tuple of names): coefficient}."""
    out = {}
    for term, coeff in nf.pairs:
        key = _names(term)
        out[key] = out.get(key, 0) + coeff
    return out


def rig_words(nf):
    """A rig normal form as {word: multiplicity}; zero is the empty sum."""
    if type(nf).__name__ == "Zero":
        return {}
    return dict(Counter(_names(word) for word in nf.inner.items))


def abelianize(words):
    out = {}
    for word, coeff in words.items():
        key = tuple(sorted(word))
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def eval_words_matrix(words, env):
    """Sum of coefficient times word product; shared prefixes multiply once."""
    total = MAT_ZERO
    prev = ()
    stack = [MAT_ID]
    for word in sorted(words):
        common = 0
        limit = min(len(prev), len(word))
        while common < limit and prev[common] == word[common]:
            common += 1
        del stack[common + 1:]
        for name in word[common:]:
            stack.append(mat_mul(stack[-1], env[name]))
        total = mat_add(total, mat_scale(words[word], stack[-1]))
        prev = word
    return total


def eval_words_bool(words):
    def value(env):
        return int(any(count and all(env[n] for n in word) for word, count in words.items()))
    return value


# --- checks: each returns None when the output is right, else a message -------

def check_ring3(node, nf, envs):
    words = ring_words(nf)
    if any(c == 0 for c in words.values()):
        return "zero coefficient kept in a ring3 normal form"
    for env in envs:
        if eval_matrix(node, env) != eval_words_matrix(words, env):
            return f"ring3 form of {render(node)} disagrees with the matrix oracle"
    return None


def check_ring2(nf2, nf3):
    """The ring2 form equals the abelianised ring3 form of the same expression."""
    if abelianize(ring_words(nf3)) != ring_words(nf2):
        return "ring2 form differs from the abelianised ring3 form"
    return None


def check_rig(node, nf, envs):
    words = rig_words(nf)
    names = sorted(variables(node))
    value = eval_words_bool(words)
    for bits in product((0, 1), repeat=len(names)):
        env = dict(zip(names, bits))
        if eval_bool(node, env) != value(env):
            return f"rig form of {render(node)} disagrees with the Boolean oracle at {env}"
    for env in envs:
        if eval_matrix(node, env) != eval_words_matrix(words, env):
            return f"rig form of {render(node)} disagrees with the matrix oracle"
    return None


def check_power(theory, m, k, nf):
    """(x1+..+xm)^k: m^k words with coefficient one, or multinomial monomials."""
    if theory == "ring2":
        words = ring_words(nf)
        if len(words) != comb(m + k - 1, k):
            return f"ring2 ({m} terms)^{k} has {len(words)} monomials, expected {comb(m + k - 1, k)}"
        for mono, coeff in words.items():
            expected = factorial(k)
            for count in Counter(mono).values():
                expected //= factorial(count)
            if coeff != expected:
                return f"ring2 ({m} terms)^{k}: coefficient {coeff} of {mono}, expected {expected}"
        return None
    words = ring_words(nf) if theory == "ring3" else rig_words(nf)
    if len(words) != m ** k or set(words.values()) != {1}:
        return f"{theory} ({m} terms)^{k} has {len(words)} terms, expected {m ** k} with coefficient 1"
    return None


# --- algebras ----------------------------------------------------------------

def describe(term):
    """Plain-data view of a distlaw term, for comparing tables."""
    kind = type(term).__name__
    if kind == "Gen":
        return term.name
    if kind == "One":
        return "1"
    if kind == "Zero":
        return "0"
    if kind == "Inj":
        return ("inj", describe(term.inner))
    if kind == "Seq":
        return ("seq",) + tuple(describe(t) for t in term.items)
    if kind == "MSet":
        return ("mset",) + tuple(sorted((describe(t) for t in term.items), key=repr))
    if kind == "IntComb":
        return ("comb",) + tuple(sorted(((describe(t), c) for t, c in term.pairs), key=repr))
    raise TypeError(f"unexpected term {term!r}")


def fold(op, names):
    acc = names[0]
    for name in names[1:]:
        acc = op(acc, name)
    return acc


def expected_adjoined_lift(constant, op, key):
    """Lift of a semigroup action through unit-absorption or zero-annihilation.

    ``key`` is a described word of adjoined elements.  The unit is deleted
    from products (an all-unit word is the unit); the zero absorbs them.
    """
    items = key[1:]
    if constant == "0" and "0" in items:
        return "0"
    kept = [item[1] for item in items if item != constant]
    if not kept:
        return constant
    return ("inj", fold(op, kept))


def expected_sum_lift(op, unit, key):
    """Lift of a commutative-monoid action through product-over-sum.

    ``key`` is a described multiset of integer combinations; the product
    is expanded and every choice of summands is acted on by the monoid.
    """
    factors = [list(factor[1:]) for factor in key[1:]]
    out = {}
    for choice in product(*factors):
        coeff = 1
        value = unit
        for element, c in choice:
            coeff *= c
            value = op(value, element)
        out[value] = out.get(value, 0) + coeff
    return ("comb",) + tuple(sorted(((v, c) for v, c in out.items() if c), key=repr))
