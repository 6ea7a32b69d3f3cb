"""The four workloads: seeded inputs, the calls made, and each call's check.

A workload is a list of ``Op``s run once, in order, in a closed loop
(one caller; a call starts when the previous one has returned).  Each
``Op.check`` receives the call's output after the pass and returns None
when it is right, otherwise a message.  Inputs depend only on the seed
and the size, so every pass of a run does the same work.

``probes`` are the known defects (see NOTES.md): run once after the
timed pass, they report whether the defect still shows.
"""

import random
from dataclasses import dataclass, field
from typing import Callable

from distlaw import (Carrier, Gen, RIG_SERIES, RING2_SERIES, RING3_SERIES, REGISTERED_LAWS, ZOO,
                     algebra_from_function, brute_force_oracle, check_distlaw,
                     check_globular_distlaw, check_globular_yang_baxter, check_interchange,
                     check_monad_laws, check_route_independence, check_yang_baxter,
                     free_ncat, globular_set_from_names, lift_to_algebras, normalize_expr,
                     Seq, padded_transpose_candidate, parse_expr, validate_series)
from distlaw.laws import LAW_PRODUCT_OVER_SUM_COMM, LAW_UNIT_ABSORPTION, LAW_ZERO_ANNIHILATION
from distlaw.monads import FREE_COMM_MONOID, FREE_SEMIGROUP, FreeMonoid

import verify


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass
class Workload:
    ops: list
    probes: list = field(default_factory=list)


SIZES = {
    "full": {
        "laws_bound": 4, "zoo_bound": 3, "lift_bound": 3,
        "series_bound": 3, "yang_baxter_bound": 4,
        "route_bounds": {"ring2": 4, "ring3": 3, "rig": 4},
        "ring_exprs": 60, "rig_exprs": 60, "max_leaves": 8,
        "powers": [(3, 8), (3, 6), (4, 5), (2, 8), (3, 4), (2, 6)],
        "ring_literals": [150, 300], "ring_sum": 200, "rig_literal": 60, "rig_sum": 80,
        "check_bound": 3, "random_gsets": 4,
    },
    "smoke": {
        "laws_bound": 2, "zoo_bound": 2, "lift_bound": 2,
        "series_bound": 2, "yang_baxter_bound": 2,
        "route_bounds": {"ring2": 2, "ring3": 2, "rig": 2},
        "ring_exprs": 6, "rig_exprs": 6, "max_leaves": 6,
        "powers": [(3, 3), (2, 4)],
        "ring_literals": [20], "ring_sum": 20, "rig_literal": 10, "rig_sum": 10,
        "check_bound": 2, "random_gsets": 1,
    },
}

# Instance counts of acceptance criterion 02 (nine laws, two generators, bound 4).
CRITERION_02_INSTANCES = {
    "product-over-sum-commutative": 22571, "product-over-sum-words": 87838,
    "product-over-sum-rig": 2325, "unit-absorption": 2830, "unit-into-sum-ring": 2757,
    "unit-into-sum-rig": 299, "zero-annihilation": 2830, "zero-in-sum": 732,
    "unit-past-zero": 72,
}

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def build(name, seed, size):
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, SIZES[size], size)


def _verdict(expect_pass, expected_total=None):
    """Check a CheckReport: its verdict, and that it checked something."""
    def check(report):
        total = report.total_checked()
        if total == 0:
            return "vacuous: zero instances checked"
        if expected_total is not None and total != expected_total:
            return f"checked {total} instances, expected {expected_total}"
        if expect_pass and not report.passed:
            return f"FAIL, expected PASS; witness {report.all_witnesses()[:1]}"
        if not expect_pass and (report.passed or not report.all_witnesses()):
            return "expected FAIL with a witness"
        return None
    return check


def _carrier(rng, k):
    return Carrier(sorted(rng.sample(LETTERS, k)))


# --- laws -----------------------------------------------------------------------

class BrokenFreeMonoid(FreeMonoid):
    """Negative control: multiplication drops the last letter."""

    name = "broken-free-monoid"

    def mult(self, t):
        flat = super().mult(t)
        return Seq(flat.items[:-1])


SEMIGROUP_OPS = {
    "left-zero": lambda x, y: x,
    "right-zero": lambda x, y: y,
    "max": max,
    "min": min,
}

COMM_MONOIDS = {
    # name: (op on element names, unit name), over the carrier ("n0", "n1")
    "and": (lambda x, y: "n0" if "n0" in (x, y) else "n1", "n1"),
    "max": (max, "n0"),
}


def _semigroup_lift(law, constant, op, carrier, bound):
    def call():
        alg = algebra_from_function(
            FREE_SEMIGROUP, list(carrier),
            lambda w: Gen(verify.fold(op, [g.name for g in w.items])), bound)
        return lift_to_algebras(law, alg)

    def check(lifted):
        if not lifted.action:
            return "empty lifted action table"
        for key, value in lifted.action.items():
            want = verify.expected_adjoined_lift(constant, op, verify.describe(key))
            if verify.describe(value) != want:
                return f"lifted action at {key}: got {value}, expected {want}"
        return None

    return call, check


def _sum_lift(op, unit, bound):
    def call():
        carrier = [Gen("n0"), Gen("n1")]
        alg = algebra_from_function(
            FREE_COMM_MONOID, carrier,
            lambda m: Gen(verify.fold(op, [unit] + [g.name for g in m.items])), bound)
        return lift_to_algebras(LAW_PRODUCT_OVER_SUM_COMM, alg)

    def check(lifted):
        if not lifted.action:
            return "empty lifted action table"
        for key, value in lifted.action.items():
            want = verify.expected_sum_lift(op, unit, verify.describe(key))
            if verify.describe(value) != want:
                return f"lifted action at {key}: got {value}, expected {want}"
        return None

    return call, check


def build_laws(rng, cfg, size):
    x2 = _carrier(rng, 2)
    ops = []
    for monad in ZOO.values():
        ops.append(Op(f"monad-laws {monad.name}",
                      lambda m=monad: check_monad_laws(m, x2, cfg["zoo_bound"]), _verdict(True)))
    for law in REGISTERED_LAWS.values():
        total = CRITERION_02_INSTANCES[law.name] if size == "full" else None
        ops.append(Op(f"distlaw {law.name}",
                      lambda law=law: check_distlaw(law, x2, cfg["laws_bound"]),
                      _verdict(True, total)))
    for op_name in rng.sample(sorted(SEMIGROUP_OPS), 2):
        carrier = _carrier(rng, 3)
        for law, constant in ((LAW_UNIT_ABSORPTION, "1"), (LAW_ZERO_ANNIHILATION, "0")):
            call, check = _semigroup_lift(law, constant, SEMIGROUP_OPS[op_name], carrier,
                                          cfg["lift_bound"])
            ops.append(Op(f"lift {law.name} {op_name}", call, check))
    monoid = rng.choice(sorted(COMM_MONOIDS))
    call, check = _sum_lift(*COMM_MONOIDS[monoid], cfg["lift_bound"])
    ops.append(Op(f"lift {LAW_PRODUCT_OVER_SUM_COMM.name} {monoid}", call, check))
    ops.append(Op("negative control broken-free-monoid",
                  lambda: check_monad_laws(BrokenFreeMonoid(), x2, cfg["zoo_bound"]),
                  _verdict(False)))
    rng.shuffle(ops)
    return Workload(ops)


# --- series ---------------------------------------------------------------------

def build_series(rng, cfg, size):
    x1 = _carrier(rng, 1)
    ops = []
    for series in (RING2_SERIES, RING3_SERIES, RIG_SERIES):
        ops.append(Op(f"validate {series.name}",
                      lambda s=series: validate_series(s, x1, cfg["series_bound"]),
                      _verdict(True)))
        n = len(series)
        for i in range(3, n + 1):
            for j in range(2, i):
                for k in range(1, j):
                    ops.append(Op(f"yang-baxter {series.name} ({i},{j},{k})",
                                  lambda s=series, t=(i, j, k):
                                      check_yang_baxter(s, *t, x1, cfg["yang_baxter_bound"]),
                                  _verdict(True)))
        ops.append(Op(f"routes {series.name}",
                      lambda s=series: check_route_independence(
                          s, x1, cfg["route_bounds"][s.name]),
                      _verdict(True)))
    rng.shuffle(ops)
    probes = [Op("routes ring3, 1 generator, bound 4",
                 lambda: check_route_independence(RING3_SERIES, x1, 4), _verdict(True))]
    return Workload(ops, probes)


# --- normalize ------------------------------------------------------------------

NAMES = ("a", "b", "c", "d")


def random_ast(rng, leaves, ring):
    """A random expression tree with about ``leaves`` leaves; ring trees
    may negate and subtract."""
    def build(budget):
        if budget == 1 or rng.random() < 0.2:
            if rng.random() < 0.6:
                return ("var", rng.choice(NAMES[:3]))
            return ("lit", rng.randint(0, 3))
        if ring and rng.random() < 0.15:
            return ("neg", build(budget))
        split = rng.randint(1, budget - 1)
        kinds = ("add", "mul", "sub") if ring else ("add", "mul")
        return (rng.choice(kinds), build(split), build(budget - split))
    return build(leaves)


def _left_fold(kind, nodes):
    node = nodes[0]
    for other in nodes[1:]:
        node = (kind, node, other)
    return node


def build_normalize(rng, cfg, size):
    carrier = Carrier(NAMES)
    envs = [{n: verify.random_matrix(rng) for n in NAMES} for _ in range(3)]
    ring3_forms = {}

    def normalize(theory, node):
        src = verify.render(node)
        return lambda: normalize_expr(theory, parse_expr(src, carrier))

    def ring_pair(label, node, ring3_check):
        """ring3 then ring2 on one expression; ring2 is checked against ring3."""
        def check3(nf):
            ring3_forms[label] = nf
            return ring3_check(nf)

        def check2(nf):
            if label not in ring3_forms:
                return "no ring3 form to compare with"
            return verify.check_ring2(nf, ring3_forms[label])

        return [Op(f"ring3 {label}", normalize("ring3", node), check3),
                Op(f"ring2 {label}", normalize("ring2", node), check2)]

    def oracle_checked(label, node, ring):
        if ring:
            return ring_pair(label, node, lambda nf: verify.check_ring3(node, nf, envs))
        return [Op(f"rig {label}", normalize("rig", node),
                   lambda nf: verify.check_rig(node, nf, envs))]

    # groups keep each ring2 call after its ring3 partner when shuffled
    groups = []
    # leaf budgets cycle through 1..max_leaves, so the size mix is the same on every seed
    for ring, count in ((True, cfg["ring_exprs"]), (False, cfg["rig_exprs"])):
        for idx in range(count):
            node = random_ast(rng, 1 + idx % cfg["max_leaves"], ring)
            groups.append(oracle_checked(f"random#{idx}", node, ring))
    for m, k in cfg["powers"]:
        names = rng.sample(NAMES, m)
        node = _left_fold("mul", [_left_fold("add", [("var", n) for n in names])] * k)
        label = f"({'+'.join(names)})^{k}"
        groups.append(ring_pair(label, node,
                                lambda nf, m=m, k=k: verify.check_power("ring3", m, k, nf)))
        groups.append([Op(f"rig {label}", normalize("rig", node),
                          lambda nf, m=m, k=k: verify.check_power("rig", m, k, nf))])
    literals = [(k, True) for k in cfg["ring_literals"]] + [(cfg["rig_literal"], False)]
    for k, ring in literals:
        node = ("add", ("mul", ("lit", k), ("var", rng.choice(NAMES))), ("var", rng.choice(NAMES)))
        groups.append(oracle_checked(f"literal {k}", node, ring))
    for length, ring in ((cfg["ring_sum"], True), (cfg["rig_sum"], False)):
        node = _left_fold("add", [("var", rng.choice(NAMES)) for _ in range(length)])
        groups.append(oracle_checked(f"sum of {length}", node, ring))
    rng.shuffle(groups)
    probes = [Op(f"ring3 {k}*a", normalize("ring3", ("mul", ("lit", k), ("var", "a"))),
                 lambda nf, k=k: None if verify.ring_words(nf) == {("a",): k}
                 else f"{k}*a normalised to {nf}")
              for k in (999, 2000)]
    return Workload([op for group in groups for op in group], probes)


# --- ncat -----------------------------------------------------------------------

def _gset(n, cells, src, tgt):
    return lambda: globular_set_from_names(n, cells, src, tgt)


# name: (builder, counts of free_ncat at bound 2, 3 and 4 where known)
FIXTURES = {
    "parallel": (_gset(2, [["x", "y"], ["f", "g"], ["al", "be"]],
                       [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}],
                       [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}]),
                 {2: [2, 4, 6], 3: [2, 4, 6]}),
    "chain": (_gset(2, [["x", "y", "z"], ["f1", "g1", "h1", "p", "q1", "q2"],
                        ["a1", "a2", "c1", "c2"]],
                    [{"f1": "x", "g1": "x", "h1": "x", "p": "y", "q1": "y", "q2": "y"},
                     {"a1": "f1", "a2": "g1", "c1": "p", "c2": "q1"}],
                    [{"f1": "y", "g1": "y", "h1": "y", "p": "z", "q1": "z", "q2": "z"},
                     {"a1": "g1", "a2": "h1", "c1": "q1", "c2": "q2"}]),
              {2: [3, 18, 51], 3: [3, 18, 51]}),
    "loop": (_gset(2, [["x"], ["e"], ["u"]], [{"e": "x"}, {"u": "e"}], [{"e": "x"}, {"u": "e"}]),
             {2: [1, 3, 13], 3: [1, 4, 85]}),
    "theta3": (_gset(3, [["x", "y"], ["f", "g"], ["al", "be"], ["u", "v"]],
                     [{"f": "x", "g": "x"}, {"al": "f", "be": "f"}, {"u": "al", "v": "al"}],
                     [{"f": "y", "g": "y"}, {"al": "g", "be": "g"}, {"u": "be", "v": "be"}]),
               {2: [2, 4, 6, 8], 3: [2, 4, 6, 8]}),
    # two endo-1-cells, both 2-cells on one of them
    "loop-set": (_gset(2, [["x"], ["e", "f"], ["u", "v"]], [{"e": "x", "f": "x"},
                                                             {"u": "e", "v": "e"}],
                       [{"e": "x", "f": "x"}, {"u": "e", "v": "e"}]),
                 {2: [1, 7, 73], 3: [1, 15, 4369]}),
    # two endo-1-cells, 2-cells u: e => f and v: f => e
    "swap-set": (_gset(2, [["x"], ["e", "f"], ["u", "v"]], [{"e": "x", "f": "x"},
                                                             {"u": "e", "v": "f"}],
                       [{"e": "x", "f": "x"}, {"u": "f", "v": "e"}]),
                 {2: [1, 7, 43], 3: [1, 15, 585], 4: [1, 31, 11111]}),
    "two-object": (_gset(2, [["x", "y"], ["f", "g", "h"], ["a", "b"]],
                         [{"f": "x", "g": "x", "h": "y"}, {"a": "f", "b": "h"}],
                         [{"f": "y", "g": "y", "h": "y"}, {"a": "g", "b": "h"}]),
                   {2: [2, 8, 26], 3: [2, 11, 149], 4: [2, 14, 1250]}),
}

# (fixture, bound) pairs whose oracle finishes within about a second
ORACLE_RUNS = {"full": [("parallel", 2), ("chain", 2), ("loop", 2), ("theta3", 2),
                        ("loop-set", 2), ("swap-set", 2), ("two-object", 2),
                        ("parallel", 3), ("chain", 3), ("loop", 3), ("theta3", 3),
                        ("two-object", 3)],
               "smoke": [("chain", 2), ("loop", 2), ("theta3", 2)]}
FREE_RUNS = {"full": [(name, 3) for name in FIXTURES] + [("swap-set", 4), ("two-object", 4)],
             "smoke": [("chain", 2), ("loop-set", 3), ("theta3", 2)]}


def random_gset(rng):
    """A tiny acyclic 2-globular set: objects in a line, 1-cells pointing forward.

    Loops, or more cells, make the oracle's cost swing by orders of
    magnitude from one set to the next; the fixtures cover the larger
    shapes at a cost that does not depend on the seed.
    """
    objects = [f"x{i}" for i in range(rng.randint(2, 3))]
    ones = {}
    for k in range(2):
        i = rng.randrange(len(objects) - 1)
        ones[f"f{k}"] = (objects[i], objects[rng.randrange(i + 1, len(objects))])
    twos = {}
    for k in range(rng.randint(1, 2)):
        f = rng.choice(sorted(ones))
        g = rng.choice(sorted(h for h in ones if ones[h] == ones[f]))
        twos[f"u{k}"] = (f, g)
    return globular_set_from_names(
        2, [objects, sorted(ones), sorted(twos)],
        [{f: s for f, (s, _) in ones.items()}, {u: f for u, (f, _) in twos.items()}],
        [{f: t for f, (_, t) in ones.items()}, {u: g for u, (_, g) in twos.items()}])


def _counts_check(expected, seen, key):
    """free_ncat and the oracle must agree with each other and any constant."""
    def check(counts):
        if expected is not None and counts != expected:
            return f"counts {counts}, expected {expected}"
        if key in seen and seen[key] != counts:
            return f"counts {counts} disagree with {seen[key]} for {key}"
        seen[key] = counts
        return None
    return check


def build_ncat(rng, cfg, size):
    gsets = {name: make() for name, (make, _) in FIXTURES.items()}
    seen = {}
    ops = []

    def counts_ops(name, gset, bound, expected, with_oracle):
        key = (name, bound)
        out = [Op(f"free_ncat {name} bound {bound}",
                  lambda: free_ncat(gset, bound).counts(), _counts_check(expected, seen, key))]
        if with_oracle:
            out.append(Op(f"oracle {name} bound {bound}",
                          lambda: brute_force_oracle(gset, bound),
                          _counts_check(expected, seen, key)))
        return out

    oracle_runs = set(ORACLE_RUNS[size])
    for name, bound in FREE_RUNS[size]:
        ops += counts_ops(name, gsets[name], bound, FIXTURES[name][1].get(bound),
                          (name, bound) in oracle_runs)
    for name, bound in ORACLE_RUNS[size]:
        if (name, bound) not in FREE_RUNS[size]:
            ops += counts_ops(name, gsets[name], bound, FIXTURES[name][1].get(bound), True)
    for name, gset in gsets.items():
        if gset.n == 2:
            for bound in sorted({2, cfg["check_bound"]} if name in ("parallel", "chain", "loop")
                                else {2}):
                ops.append(Op(f"interchange {name} bound {bound}",
                              lambda g=gset, b=bound: check_interchange(1, 0, g, b),
                              _verdict(True)))
    theta = gsets["theta3"]
    for i, j in ((1, 0), (2, 1), (2, 0)):
        ops.append(Op(f"interchange theta3 ({i},{j})",
                      lambda i=i, j=j: check_interchange(i, j, theta, 2), _verdict(True)))
    for bound in sorted({2, cfg["check_bound"]}):
        ops.append(Op(f"yang-baxter theta3 bound {bound}",
                      lambda b=bound: check_globular_yang_baxter(2, 1, 0, theta, b),
                      _verdict(True)))
    ops.append(Op("negative control padded transpose",
                  lambda: check_globular_distlaw(
                      0, 1, lambda c: padded_transpose_candidate(c, 1, 0), gsets["chain"], 2,
                      title="pad-candidate"),
                  _verdict(False)))
    for idx in range(cfg["random_gsets"]):
        ops += counts_ops(f"random#{idx}", random_gset(rng), 2, None, True)
    rng.shuffle(ops)
    return Workload(ops)


BUILDERS = {"laws": build_laws, "series": build_series,
            "normalize": build_normalize, "ncat": build_ncat}
