import errno
import gc
import io
import math
import os
import threading
import warnings
from functools import cache, partial
from math import comb

import pytest

from distlaw import (BoundTooLarge, Carrier, CompositeMonad, DistLaw, DistributiveSeries, Gen,
                     GlobularSet, IntComb, ONE, REGISTERED_LAWS, Seq, UnsupportedNode, ZERO,
                     all_routes, brute_force_oracle, check_distlaw, check_monad_laws,
                     check_monad_naturality, check_route_independence,
                     check_yang_baxter, compose_series, composition_series,
                     derive_block_law, enum_stack, free_ncat, load_gset, normalize_expr,
                     parse_expr, parse_route, validate_series)
from distlaw.checks import _same, compare_all
from distlaw.cli import main
from distlaw.errors import IndexOrder, ShapeMismatch, SplitOutOfRange
from distlaw.laws import (LAW_PRODUCT_OVER_SUM_WORDS, LAW_UNIT_ABSORPTION, LAW_ZERO_IN_SUM,
                          move_constant_out)
from distlaw.monads import (ADJOIN_UNIT, FREE_ABELIAN_GROUP, FREE_MONOID, FREE_SEMIGROUP,
                            IDENTITY, ZOO, _stream_stack)
from distlaw.normalize import RIG_SERIES, RING2_SERIES, RING3_SERIES
from distlaw.series import compare_routes

from oracles import (compare_routes_by_section, gen_count, monad_laws_by_section,
                     run_by_section)
from test_monads import BrokenFreeMonoid

X1 = Carrier.of_size(1)
X2 = Carrier.of_size(2)
a, b = Gen("a"), Gen("b")


def test_series_requires_every_pairwise_law():
    with pytest.raises(ShapeMismatch):
        DistributiveSeries("broken", [ADJOIN_UNIT, FREE_SEMIGROUP], {})


def test_series_checks_law_endpoints():
    with pytest.raises(ShapeMismatch):
        DistributiveSeries("broken", [ADJOIN_UNIT, FREE_SEMIGROUP],
                           {(2, 1): LAW_ZERO_IN_SUM})


def _identity_series(n):
    laws = {(i, j): DistLaw(f"identity-{i}-{j}", IDENTITY, IDENTITY, lambda t: t)
            for i in range(2, n + 1) for j in range(1, i)}
    return DistributiveSeries(f"identity{n}", [IDENTITY] * n, laws)


@pytest.mark.parametrize("series", [_identity_series(n) for n in range(1, 6)]
                         + [RING2_SERIES, RING3_SERIES, RIG_SERIES],
                         ids=lambda s: s.name)
def test_pairs_and_triples_follow_validate_series(series):
    n = len(series)
    pairs, triples = series.pairs(), series.triples()
    assert len(pairs) == comb(n, 2)
    assert len(triples) == comb(n, 3)
    assert all(n >= i > j >= 1 for i, j in pairs)
    assert all(n >= i > j > k >= 1 for i, j, k in triples)
    assert set(pairs) == set(series.laws)
    sections = validate_series(series, X1, 1).sections
    assert [s.title for s in sections[n:]] == \
        [f"distlaw[{series.law(i, j).name}]" for i, j in pairs] + \
        [f"yang-baxter[{series.name}]({i},{j},{k})" for i, j, k in triples]


@pytest.mark.parametrize("name", sorted(REGISTERED_LAWS))
def test_a_composite_takes_its_monads_from_its_law(name):
    law = REGISTERED_LAWS[name]
    composite = CompositeMonad(law)
    assert composite.outer is law.t_monad
    assert composite.inner is law.s_monad
    assert composite.law is law


def test_yang_baxter_passes_for_ring3_and_rig():
    assert check_yang_baxter(RING3_SERIES, 3, 2, 1, X1, 3).passed
    for triple in ((3, 2, 1), (4, 2, 1), (4, 3, 1), (4, 3, 2)):
        assert check_yang_baxter(RIG_SERIES, *triple, X1, 3).passed


def test_yang_baxter_insists_on_descending_indices():
    with pytest.raises(IndexOrder):
        check_yang_baxter(RIG_SERIES, 2, 3, 1, X1, 2)


def test_yang_baxter_on_unit_embedded_generators():
    """Both hexagon paths send a triple-unit generator to the same cell."""
    series = RING3_SERIES
    Ti, Tj, Tk = (series.monad(i) for i in (3, 2, 1))
    t = Ti.unit(Tj.unit(Tk.unit(a)))
    upper = series.law(2, 1).transform(
        Tj.fmap(series.law(3, 1).transform, series.law(3, 2).transform(t)))
    lower = Tk.fmap(series.law(3, 2).transform,
                    series.law(3, 1).transform(Ti.fmap(series.law(2, 1).transform, t)))
    assert upper == lower


def test_validate_series_ring3():
    report = validate_series(RING3_SERIES, X1, 2)
    assert report.passed


def test_validate_series_single_monad_is_vacuous():
    solo = DistributiveSeries("solo", [FREE_MONOID], {})
    assert validate_series(solo, X2, 2).passed
    assert check_route_independence(solo, X2, 2).passed


def test_validate_series_flags_a_broken_law():
    collapse = DistLaw("collapse-to-zero",
                       RIG_SERIES.monad(2), RIG_SERIES.monad(1),
                       lambda t: ZERO)
    laws = dict(RIG_SERIES.laws)
    laws[(2, 1)] = collapse
    broken = DistributiveSeries("rig-broken", RIG_SERIES.monads, laws)
    report = validate_series(broken, X1, 2)
    assert not report.passed
    failing = {w.check_id for w in report.all_witnesses()}
    assert any("collapse-to-zero" in f and "unit" in f for f in failing)


def test_block_law_for_two_monads_is_the_stored_law():
    assert derive_block_law(RING2_SERIES, 1) is RING2_SERIES.laws[(2, 1)]
    assert compose_series(RIG_SERIES, (1, ((2, 3), 4))).inner.outer.law is RIG_SERIES.laws[(3, 2)]


def test_block_law_split_out_of_range():
    with pytest.raises(SplitOutOfRange):
        derive_block_law(RING3_SERIES, 3)
    with pytest.raises(SplitOutOfRange):
        derive_block_law(RING3_SERIES, 0)


def test_ring3_block_law_passes_the_distributive_diagrams():
    law = derive_block_law(RING3_SERIES, 1)
    report = check_distlaw(law, X1, 3)
    assert report.passed


def test_rig_block_law_passes_the_distributive_diagrams():
    law = derive_block_law(RIG_SERIES, 2)
    report = check_distlaw(law, X1, 3)
    assert report.passed


@pytest.mark.parametrize("series, split", [
    (RING3_SERIES, 1), (RING3_SERIES, 2),
    (RIG_SERIES, 1), (RIG_SERIES, 2), (RIG_SERIES, 3),
])
def test_every_split_induces_a_distributive_law(series, split):
    law = derive_block_law(series, split)
    assert check_distlaw(law, X1, 3).passed


def test_composite_of_unit_and_semigroup_is_the_free_monoid():
    PS = CompositeMonad(LAW_UNIT_ABSORPTION)
    assert check_monad_laws(PS, X2, 3).passed

    def to_word(t):
        if t == ONE:
            return Seq(())
        return t.inner

    composite = PS.enumerate(list(X2), 3)
    words = FREE_MONOID.enumerate(list(X2), 3)
    assert sorted(map(to_word, composite), key=lambda t: t.key) == \
        sorted(words, key=lambda t: t.key)
    for t in composite:
        assert gen_count(to_word(t)) == gen_count(t)
    # multiplication is carried across the identification
    for tt in enum_stack([ADJOIN_UNIT, FREE_SEMIGROUP] * 2, list(X2), 3):
        lhs = to_word(PS.mult(tt))
        rhs = FREE_MONOID.mult(FREE_MONOID.fmap(to_word, to_word(tt)))
        assert lhs == rhs


def test_composition_with_the_identity_monad_changes_nothing():
    triv_in = DistLaw("identity-under", IDENTITY, FREE_MONOID, lambda t: t)
    monad = CompositeMonad(triv_in)
    assert check_monad_laws(monad, X2, 3).passed
    assert monad.enumerate(list(X2), 3) == FREE_MONOID.enumerate(list(X2), 3)
    for tt in enum_stack([FREE_MONOID, FREE_MONOID], list(X2), 3):
        assert monad.mult(tt) == FREE_MONOID.mult(tt)


def test_route_utilities():
    assert parse_route("((1,2),3)") == ((1, 2), 3)
    assert parse_route("(1,(2,(3,4)))") == (1, (2, (3, 4)))
    assert len(all_routes(3)) == 2
    assert len(all_routes(4)) == 5
    for text in ("((1,2)", "(1,2,3)", "[1,2]", "(True,2)", "(1,-2)", "x", "{[1]}"):
        with pytest.raises(ValueError):
            parse_route(text)
    with pytest.raises(ShapeMismatch):
        compose_series(RING3_SERIES, ((1, 3), 2))
    for route in (((1, 2), (2, 3)), (2, (1, 3)), ((1, 2), 3)):
        with pytest.raises(ShapeMismatch):
            compose_series(RIG_SERIES, route)
    for route in ((((1, 2), 3), 5), (0, ((1, 2), (3, 4)))):
        with pytest.raises(IndexOrder):
            compose_series(RIG_SERIES, route)


def test_a_route_is_checked_where_it_is_composed():
    # a leaf is an int and nothing else; every other node is a pair
    for series, route in ((RING2_SERIES, (True, 2)), (RING2_SERIES, [1, 2]),
                          (RING2_SERIES, (1, 2, 3)), (RING3_SERIES, ((1, 2), (3, 4.0)))):
        with pytest.raises(ShapeMismatch, match="is neither a pair nor a leaf index$"):
            compose_series(series, route)


def test_series_indices_outside_one_to_n_are_rejected():
    for i in (0, -1, 4, 5):
        with pytest.raises(IndexOrder):
            RING3_SERIES.monad(i)
    for i, j in ((5, 1), (4, 3), (2, 0), (1, -1)):
        with pytest.raises(IndexOrder):
            RING3_SERIES.law(i, j)
    for i, j, k in ((5, 2, 1), (4, 2, 1), (3, 2, 0), (0, -1, -2)):
        with pytest.raises(IndexOrder):
            check_yang_baxter(RING3_SERIES, i, j, k, X1, 1)
    assert RING3_SERIES.monad(3) is FREE_SEMIGROUP


def test_route_independence_ring3_and_rig():
    assert check_route_independence(RING3_SERIES, X1, 2).passed
    assert check_route_independence(RIG_SERIES, X1, 2).passed


def test_route_limit_is_enforced(monkeypatch):
    """No limit on the length of the series; the enumeration ceiling bounds the inputs."""
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    five = DistributiveSeries("id5", [IDENTITY] * 5,
                              {(i, j): DistLaw(f"id{i}{j}", IDENTITY, IDENTITY, lambda t: t)
                               for i in range(2, 6) for j in range(1, i)})
    assert check_route_independence(five, X1, 2).passed
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 10)
    with pytest.raises(BoundTooLarge):
        check_route_independence(RIG_SERIES, X1, 2)


@pytest.mark.parametrize("check, ceiling", [
    (lambda: check_monad_laws(FREE_SEMIGROUP, X2, 3), 50),
    (lambda: check_distlaw(LAW_PRODUCT_OVER_SUM_WORDS, X2, 3), 500),
    (lambda: check_yang_baxter(RING3_SERIES, 3, 2, 1, X2, 3), 100),
], ids=["monad-laws", "distlaw", "yang-baxter"])
def test_a_streamed_layer_counts_against_the_ceiling(monkeypatch, check, ceiling):
    """Every listed layer fits under the ceiling; the streamed top layer of
    free-semigroup walks (86, 735 and 374 of them) does not."""
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", ceiling)
    with pytest.raises(BoundTooLarge) as info:
        check()
    assert str(info.value) == \
        f"free-semigroup at bound 3: enumeration exceeds ceiling of {ceiling} elements"


def test_identity_pair_series_validates():
    law = DistLaw("idlaw", IDENTITY, IDENTITY, lambda t: t)
    series = DistributiveSeries("id2", [IDENTITY, IDENTITY], {(2, 1): law})
    assert validate_series(series, X1, 2).passed


def test_ring3_composites_all_routes_give_the_same_mult():
    doubles = enum_stack(RING3_SERIES.monads * 2, list(X1), 2)
    composites = [compose_series(RING3_SERIES, r) for r in all_routes(3)]
    for tt in doubles:
        values = {m.mult(tt) for m in composites}
        assert len(values) == 1


def test_naturality_is_checked_on_term_carriers_only():
    sections = check_distlaw(LAW_UNIT_ABSORPTION, X1, 2).sections
    assert sum("naturality#" in s.title for s in sections) == 6
    cells = GlobularSet(2, [[], [], []])
    sections = check_distlaw(composition_series(2).law(2, 1), cells, 2).sections
    assert [s.title.rsplit(":", 1)[1] for s in sections] == ["unit-S", "mult-S", "unit-T", "mult-T"]


def _report_shape(report):
    """Every node of a report tree: title, checked count and witness triples."""
    rows = [(report.title, report.checked,
             [(w.input, w.left, w.right) for w in report.witnesses])]
    for section in report.sections:
        rows.extend(_report_shape(section))
    return rows


def _dropping_a_summand(t):
    return IntComb(REGISTERED_LAWS["product-over-sum-words"].transform(t).pairs[:-1])


def _raising_on_pairs(t):
    if len(t.items) == 2:
        raise ShapeMismatch(f"refusing the pair {t}")
    return REGISTERED_LAWS["product-over-sum-words"].transform(t)


MUTANT_LAWS = [DistLaw(name, FREE_SEMIGROUP, FREE_ABELIAN_GROUP, transform)
               for name, transform in (("drops-a-summand", _dropping_a_summand),
                                       ("raises-on-pairs", _raising_on_pairs))]
# ring3 with a mutant in place of its product-over-sum law, at the same positions
MUTANT_SERIES = [DistributiveSeries(f"ring3-{law.name}", RING3_SERIES.monads,
                                    {**RING3_SERIES.laws, (3, 1): law})
                 for law in MUTANT_LAWS]


def test_the_per_check_caches_change_no_report(monkeypatch, chain_2gset, theta_3gset,
                                                split_after):
    import distlaw.checks
    import distlaw.series

    def reports():
        laws = ([check_distlaw(law, X2, 3) for law in [*REGISTERED_LAWS.values(), *MUTANT_LAWS]]
                + [check_monad_laws(m, X2, 3) for m in [*ZOO.values(), BrokenFreeMonoid()]]
                + [check_monad_naturality(m, X2, 2) for m in ZOO.values()])
        routes = ([check_route_independence(RIG_SERIES, X1, 4),
                   check_route_independence(RING3_SERIES, X1, 3),
                   check_route_independence(composition_series(2), chain_2gset, 2)]
                  + [compare_routes(series, all_routes(3), X1, 3) for series in MUTANT_SERIES])
        hexagons = ([check_yang_baxter(RING3_SERIES, 3, 2, 1, X1, 4)]
                    + [check_yang_baxter(RIG_SERIES, *t, X1, 3) for t in RIG_SERIES.triples()]
                    + [check_yang_baxter(composition_series(3), 3, 2, 1, theta_3gset, 2)]
                    + [check_yang_baxter(series, 3, 2, 1, X2, 3) for series in MUTANT_SERIES])
        return laws, routes, hexagons

    cached = reports()
    monkeypatch.setattr(distlaw.series, "cache", lambda f: f)
    monkeypatch.setattr(distlaw.checks, "cache", lambda f: f)
    plain = reports()
    for cached_reports, plain_reports in zip(cached, plain):
        assert [_report_shape(r) for r in cached_reports] == \
            [_report_shape(r) for r in plain_reports]
    laws, routes, hexagons = cached
    # the mutants and the broken monad are seen to fail, one of them on errors
    assert [r.passed for r in laws[9:]] == \
        [False, False] + [True] * len(ZOO) + [False] + [True] * len(ZOO)
    assert any(str(w.left).startswith("error:") for w in laws[10].all_witnesses())
    # every route agrees on the true series; the raising mutant leaves witnesses
    assert [r.passed for r in routes] == [True, True, True, True, False]
    assert [r.total_checked() for r in routes[:3]] == [3620, 1781, 1747]
    assert len(routes[4].all_witnesses()) == 850
    # every true hexagon passes, over terms and over cells; both mutants fail theirs
    assert [r.passed for r in hexagons] == [True] * 6 + [False, False]


def test_the_hexagons_choose_between_two_valid_laws_of_a_pair():
    """The point absorbs: a valid law of the free semigroup over the adjoined
    unit, but not ring3's.  Swapped in at (3,2), it passes its own diagrams
    and route independence; only the hexagon (3,2,1) tells it apart."""
    absorbing = DistLaw("unit-absorbing", FREE_SEMIGROUP, ADJOIN_UNIT,
                        lambda t: move_constant_out(t, Seq, ONE, absorbing=True))
    swapped = DistributiveSeries("ring3-absorbing", RING3_SERIES.monads,
                                 {**RING3_SERIES.laws, (3, 2): absorbing})
    assert check_distlaw(absorbing, X1, 3).passed and check_distlaw(absorbing, X2, 3).passed
    for bound, inputs in ((2, 155), (3, 1781)):
        routes = check_route_independence(swapped, X1, bound)
        assert routes.passed and routes.total_checked() == inputs
        report = validate_series(swapped, X1, bound)
        failing = [s.title for s in report.sections if not s.passed]
        assert failing == ["yang-baxter[ring3-absorbing](3,2,1)"]


@pytest.mark.usefixtures("one_process")
def test_a_block_law_is_computed_once_per_argument_per_route(monkeypatch):
    import distlaw.series
    names, counts = [], []  # each block law built, and its arguments, one list per law

    def counted(name, s_monad, t_monad, transform):
        if "-block(" not in name:  # a pair law's shared table is pinned on its own
            return DistLaw(name, s_monad, t_monad, transform)
        calls = []
        names.append(name)
        counts.append(calls)

        def count(t):
            calls.append(t)
            return transform(t)

        return DistLaw(name, s_monad, t_monad, count)

    monkeypatch.setattr(distlaw.series, "DistLaw", counted)
    assert compare_routes(RIG_SERIES, all_routes(4), X1, 3).passed
    # the 5 routes of four monads build 2 + 2 + 1 + 2 + 2 block laws, each
    # one run once per argument
    built = list(names)
    assert len(counts) == 9 and all(counts)
    assert all(len(calls) == len(set(calls)) for calls in counts)
    # without the tables, the same block laws meet arguments again
    names.clear()
    counts.clear()
    monkeypatch.setattr(distlaw.series, "cache", lambda f: f)
    assert compare_routes(RIG_SERIES, all_routes(4), X1, 3).passed
    assert names == built
    assert any(len(calls) > len(set(calls)) for calls in counts)


def _counting_series(series):
    """A copy of ``series`` whose pair laws record their arguments, one list per pair."""
    calls = {pair: [] for pair in series.laws}

    def counting(pair, law):
        def count(t):
            calls[pair].append(t)
            return law.transform(t)
        return DistLaw(law.name, law.s_monad, law.t_monad, count)

    laws = {pair: counting(pair, law) for pair, law in series.laws.items()}
    return DistributiveSeries(series.name, series.monads, laws), calls


@pytest.mark.usefixtures("one_process")
def test_a_pair_law_is_computed_once_per_argument_across_routes():
    counted, calls = _counting_series(RIG_SERIES)
    assert compare_routes(counted, all_routes(4), X1, 3).passed
    # every route and every block law reads the one table of each pair law
    assert all(len(args) == len(set(args)) for args in calls.values())
    assert sum(len(args) for args in calls.values()) == 618


def _items(monad, terms):
    """The distinct terms that ``monad.fmap`` meets in ``terms``."""
    seen = set()
    for t in terms:
        monad.fmap(lambda s: seen.add(s) or s, t)
    return seen


@pytest.mark.usefixtures("one_process")
def test_a_hexagon_computes_each_position_below_its_input_once_per_argument():
    counted, calls = _counting_series(RING3_SERIES)
    assert check_yang_baxter(counted, 3, 2, 1, X1, 4).passed
    T3, T2, T1 = (RING3_SERIES.monad(i) for i in (3, 2, 1))
    law = RING3_SERIES.law
    inputs = list(enum_stack([T3, T2, T1], list(X1), 4))
    # the arguments of Ti.fmap(λ_jk), Tj.fmap(λ_ik) and Tk.fmap(λ_ij)
    below = {(2, 1): _items(T3, inputs),
             (3, 1): _items(T2, [law(3, 2).transform(c) for c in inputs]),
             (3, 2): _items(T1, [law(3, 1).transform(T3.fmap(law(2, 1).transform, c))
                                 for c in inputs])}
    # each law also runs once per input at its plain position, on a whole term
    assert {pair: len(args) for pair, args in calls.items()} == \
        {pair: len(inputs) + len(args) for pair, args in below.items()}


def test_comparing_no_routes_is_a_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="rig"):
        compare_routes(RIG_SERIES, [], X1, 2)


def _plain_at_every_level(composite):
    if not isinstance(composite, CompositeMonad):
        return True
    return (composite._swap is composite.law.transform
            and composite._inner_mult == composite.inner.mult
            and _plain_at_every_level(composite.outer)
            and _plain_at_every_level(composite.inner))


def test_route_tables_die_with_the_check(monkeypatch):
    import gc
    import weakref

    import distlaw.series
    from distlaw.normalize import THEORIES
    pair_laws = {law.transform for law in RIG_SERIES.laws.values()}
    tables, kinds = [], []

    def tracked(f):
        table = cache(f)
        tables.append(weakref.ref(table))
        kinds.append("pair" if f in pair_laws else getattr(f, "__name__", None))
        return table

    monkeypatch.setattr(distlaw.series, "cache", tracked)
    assert check_route_independence(RIG_SERIES, X1, 3).passed
    gc.collect()
    # one table per pair law, then, in each of the 5 routes with 3 levels,
    # one per inner mult and one per block law: 2 + 2 + 1 + 2 + 2 of them
    assert kinds[:6] == ["pair"] * 6
    assert sorted(kinds[6:]) == ["<lambda>"] * 9 + ["mult"] * 15
    assert len(tables) == 30 and all(table() is None for table in tables)
    composites = [compose_series(RIG_SERIES, r) for r in all_routes(4)]
    composites += [THEORIES[name].monad for name in ("ring2", "ring3", "rig")]
    assert all(_plain_at_every_level(c) for c in composites)


@pytest.mark.usefixtures("one_process")
def test_a_law_component_is_computed_once_per_check():
    words = REGISTERED_LAWS["product-over-sum-words"]
    calls = []

    def counted(t):
        calls.append(t)
        return words.transform(t)

    S, T = words.s_monad, words.t_monad
    check_distlaw(DistLaw("counted", S, T, counted), X2, 3)
    # Words of empty sums lie in S(T(X)) and also in S(T(T(X))) and
    # S(T(S(X))), where the two plain positions meet them once per input.
    layer = set(enum_stack([S, T], list(X2), 3))
    deeper = set(enum_stack([S, T, T], list(X2), 3)) | set(enum_stack([S, T, S], list(X2), 3))
    only_below = layer - deeper
    assert len(layer & deeper) == 3
    in_layer = [t for t in calls if t in only_below]
    assert len(in_layer) == len(set(in_layer)) == len(only_below)


def _dropping_words_with_b(t):
    """The words law, then every summand that mentions ``b`` dropped: not natural."""
    comb = LAW_PRODUCT_OVER_SUM_WORDS.transform(t)
    return IntComb(tuple((w, k) for w, k in comb.pairs if b not in w.items))


UNNATURAL_LAW = DistLaw("drops-b", FREE_SEMIGROUP, FREE_ABELIAN_GROUP, _dropping_words_with_b)


@pytest.mark.parametrize("series, bound", [
    (RING2_SERIES, 3), (RING2_SERIES, 4), (RING3_SERIES, 3), (RIG_SERIES, 3), (RIG_SERIES, 4),
], ids=["ring2-3", "ring2-4", "ring3-3", "rig-3", "rig-4"])
def test_one_pass_routes_match_the_section_by_section_loop(series, bound):
    routes = all_routes(len(series))
    assert _report_shape(compare_routes(series, routes, X1, bound)) == \
        _report_shape(compare_routes_by_section(series, routes, X1, bound))


def test_one_pass_reports_match_the_section_by_section_loops(monkeypatch, chain_2gset,
                                                              split_after):
    import distlaw.checks
    import distlaw.series
    routes = [compare_routes(series, all_routes(3), X1, 3) for series in MUTANT_SERIES]
    assert [_report_shape(r) for r in routes] == \
        [_report_shape(compare_routes_by_section(series, all_routes(3), X1, 3))
         for series in MUTANT_SERIES]
    # every witness of the raising mutant is an error on both legs
    assert len(routes[1].all_witnesses()) == 850
    assert all(str(w.left).startswith("error:") and str(w.right).startswith("error:")
               for w in routes[1].all_witnesses())
    cells = composition_series(2)
    assert _report_shape(compare_routes(cells, all_routes(2), chain_2gset, 2)) == \
        _report_shape(compare_routes_by_section(cells, all_routes(2), chain_2gset, 2))

    laws = [*REGISTERED_LAWS.values(), UNNATURAL_LAW]
    monads = [*ZOO.values(), BrokenFreeMonoid()]

    def reports():
        return ([check_distlaw(law, X2, 3) for law in laws]
                + [check_monad_naturality(m, X2, 2) for m in ZOO.values()])

    one_pass = reports() + [check_monad_laws(m, X2, 3) for m in monads]
    monkeypatch.setattr(distlaw.series, "run", run_by_section)
    monkeypatch.setattr(distlaw.checks, "run", run_by_section)
    by_section = reports() + [monad_laws_by_section(m, X2, 3) for m in monads]
    assert [_report_shape(r) for r in one_pass] == [_report_shape(r) for r in by_section]
    # the nine laws are natural; the law that drops summands with b is seen not to be
    natural = [all(s.passed for s in r.sections if "naturality#" in s.title)
               for r in one_pass[:len(laws)]]
    assert natural == [True] * len(REGISTERED_LAWS) + [False]


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("check, ceiling", [
    (lambda: check_monad_laws(FREE_SEMIGROUP, X2, 3), 50),
    (lambda: check_distlaw(LAW_PRODUCT_OVER_SUM_WORDS, X2, 3), 500),
    (lambda: check_yang_baxter(RING3_SERIES, 3, 2, 1, X2, 3), 100),
], ids=["monad-laws", "distlaw", "yang-baxter"])
def test_a_split_stream_raises_the_serial_bound_error(monkeypatch, three_cpus, check, ceiling):
    """The streamed top layer passes the ceiling inside a shared stream."""
    import distlaw.checks
    import distlaw.monads
    from distlaw.errors import BoundTooLarge
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", ceiling)
    raised = []
    # at 8192 the walks taken to decide whether to split meet the ceiling themselves
    for split_after in (math.inf, 0, 8192):
        monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", split_after)
        with warnings.catch_warnings():
            # from Python 3.12, os.fork warns when the process has a second thread
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(BoundTooLarge) as info:
                check()
        raised.append(str(info.value))
        _no_child_is_left()
    assert raised[0] == raised[1] == raised[2]


def _raising_at(position, error):
    def leg(t):
        if t == position:
            raise error
        return t
    return leg


def test_a_split_stream_raises_the_error_of_the_earliest_input(monkeypatch, three_cpus):
    """Three processes each meet one error; the serial loop meets the
    worker's at input 700 first, and so does the split one."""
    import distlaw.checks
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 0)
    legs = [_raising_at(700, ZeroDivisionError("at 700")), _raising_at(701, KeyError(701)),
            _raising_at(702, ValueError("at 702"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises(ZeroDivisionError, match="at 700"):
            compare_all(range(1000), [("first", legs[0], legs[1]), ("second", legs[2], _same)])
    _no_child_is_left()
    # one raising leg, in the process that keeps input 0
    with pytest.raises(ZeroDivisionError):
        compare_all(range(1000), [("one", lambda t: 1 // (t - 300), _same)])
    _no_child_is_left()
    # inputs that raise at 800, before the walks taken to decide whether to
    # split are enough: the leg still raises first, at 700, as it does serially
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 8192)

    def raising_at_800():
        for t in range(1000):
            if t == 800:
                raise BoundTooLarge("at 800")
            yield t

    with pytest.raises(ZeroDivisionError, match="at 700"):
        compare_all(raising_at_800(), [("first", legs[0], legs[1]), ("second", legs[2], _same)])
    _no_child_is_left()


def test_a_worker_never_splits_again(monkeypatch, three_cpus):
    """Each of three processes keeps every third input; only this one may fork."""
    import distlaw.checks
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 0)
    report, = compare_all(range(10), [("shares", lambda t: distlaw.checks._shares(), lambda t: 1)])
    assert report.checked == 10
    assert [w.input for w in report.witnesses] == [0, 3, 6, 9]
    assert {w.left for w in report.witnesses} == {3}
    _no_child_is_left()


@pytest.mark.parametrize("legs", [1, 2, 3])
def test_a_stream_splits_past_the_same_input_as_before(monkeypatch, three_cpus, legs):
    """One process keeps a stream whose inputs before its last make fewer
    than ``SPLIT_AFTER_CALLS`` leg calls: as many inputs as the serial loop
    ran before it could fork, ``ceil(SPLIT_AFTER_CALLS / legs)``.  One more
    input forks the workers."""
    import distlaw.checks
    assert distlaw.checks.SPLIT_AFTER_CALLS == 8192
    kept = -(-8192 // legs)
    distinct = [lambda t: t, lambda t: 0, lambda t: 1][:legs]
    sections = [(f"leg{k}", leg, leg) for k, leg in enumerate(distinct)]
    forks = _failing_fork(monkeypatch, 0)  # counts, never fails
    for size, forked in ((kept, 0), (kept + 1, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reports = compare_all(range(size), sections)
        assert [r.checked for r in reports] == [size] * legs and all(r.passed for r in reports)
        assert len(forks) == forked, (legs, size)
        _no_child_is_left()


def test_a_split_stream_forks_before_its_first_leg_call(monkeypatch, three_cpus):
    """A long stream is shared from input 0: this process runs no leg
    before it forks, and checks inputs 0, 3, 6, ...; each worker checks
    its own third from its own first position."""
    seen = []

    def here(t):
        seen.append(t)
        return os.getpid()

    forks = _failing_fork(monkeypatch, 0)  # counts, never fails
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        report, = compare_all(range(9000), [("pids", here, lambda t: None)])
    assert len(forks) == 2 and report.checked == 9000
    assert seen == list(range(0, 9000, 3))
    pids = {}
    for w in report.witnesses:
        pids.setdefault(w.input % 3, set()).add(w.left)
    assert pids[0] == {os.getpid()} and len(pids[1] | pids[2]) == 2
    assert [w.input for w in report.witnesses] == list(range(9000))
    _no_child_is_left()


def test_a_stream_of_no_known_size_is_split(monkeypatch, three_cpus):
    """A generator has no length: the inputs taken to decide whether to
    split tell that it is long, and it forks two workers."""
    import distlaw.checks

    def inputs():
        yield from range(9000)

    sections = [("mod", lambda t: t % 7, lambda t: t % 5)]
    forks = _failing_fork(monkeypatch, 0)  # counts, never fails
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        split, = compare_all(inputs(), sections)
    assert len(forks) == 2
    _no_child_is_left()
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", math.inf)
    serial, = compare_all(inputs(), sections)
    assert len(forks) == 2
    assert _report_shape(split) == _report_shape(serial)
    assert split.checked == 9000
    assert [w.input for w in split.witnesses] == [t for t in range(9000) if t % 7 != t % 5]


def test_a_split_worker_builds_only_its_own_share(three_cpus):
    """Each process builds the words at its own positions only: at
    position p it has built p // 3 + 1 of them, the other walks dropped
    unbuilt."""
    stream = _stream_stack([FREE_MONOID], list(X2), 12)
    words = FREE_MONOID.enumerate(list(X2), 12)
    assert len(words) == 2 ** 13 - 1
    built, build = [], stream.build

    def counted(walk):
        built.append(walk)
        return build(walk)

    stream.build = counted
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        report, = compare_all(stream, [("built", lambda t: len(built), lambda t: None)])
    assert report.checked == 2 ** 13 - 1
    assert [w.input for w in report.witnesses] == words
    assert [w.left for w in report.witnesses] == [p // 3 + 1 for p in range(len(words))]
    assert len(built) == len(range(0, len(words), 3))
    _no_child_is_left()


def test_a_second_thread_keeps_the_loop_in_one_process(three_cpus):
    import distlaw.checks
    assert distlaw.checks._shares() == 3
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert distlaw.checks._shares() == 1
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _failing_fork(monkeypatch, failing_call):
    """``os.fork`` raises EAGAIN on its ``failing_call``-th call and forks
    otherwise; the list of calls made so far."""
    fork, calls = os.fork, []

    def fork_or_fail():
        calls.append(len(calls) + 1)
        if len(calls) == failing_call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_or_fail)
    return calls


@pytest.mark.parametrize("failing_call", [1, 2], ids=["first-fork", "second-fork"])
def test_a_failed_fork_leaves_the_split_stream_to_this_process(monkeypatch, three_cpus,
                                                                failing_call):
    """The first stream cannot fork its first or its second worker: the
    one forked is killed and reaped, and the stream runs on here."""
    import distlaw.checks

    def reports():
        return [_report_shape(check_distlaw(law, X2, 2))
                for law in (LAW_UNIT_ABSORPTION, UNNATURAL_LAW)]

    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", math.inf)
    serial = reports()
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 0)
    calls = _failing_fork(monkeypatch, failing_call)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        assert reports() == serial
    assert len(calls) > failing_call
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    _no_child_is_left()


def test_the_command_line_passes_when_a_split_cannot_fork(monkeypatch, three_cpus):
    import distlaw.checks
    monkeypatch.setattr(distlaw.checks, "SPLIT_AFTER_CALLS", 0)
    _failing_fork(monkeypatch, 2)
    out = io.StringIO()
    assert main(["distlaw", "--law", "unit-absorption", "--bound", "2"], out=out) == 0
    assert out.getvalue().endswith("PASS: 1 laws\n")
    _no_child_is_left()


@pytest.mark.usefixtures("one_process")
def test_the_reference_route_multiplies_once_per_input(monkeypatch):
    routes = all_routes(4)
    reference = compose_series(RIG_SERIES, routes[0]).name
    plain = CompositeMonad.mult
    arguments = []

    def counted(self, t):
        if self.name == reference:
            arguments.append(t)
        return plain(self, t)

    monkeypatch.setattr(CompositeMonad, "mult", counted)
    report = compare_routes(RIG_SERIES, routes, X1, 3)
    assert report.passed and len(report.sections) == 4
    assert {s.checked for s in report.sections} == {len(arguments)} == {158}
    assert len(set(arguments)) == len(arguments)


def test_routes_and_naturality_never_list_their_inputs(monkeypatch):
    import distlaw.checks
    import distlaw.monads
    import distlaw.series

    def listed(*_args):
        raise AssertionError("enum_stack was called")

    for module in (distlaw.monads, distlaw.checks, distlaw.series):
        monkeypatch.setattr(module, "enum_stack", listed, raising=False)
    assert check_route_independence(RIG_SERIES, X1, 3).passed
    assert check_route_independence(RING2_SERIES, X1, 3).passed
    assert check_distlaw(LAW_PRODUCT_OVER_SUM_WORDS, X2, 3).passed
    assert check_monad_naturality(FREE_SEMIGROUP, X2, 3).passed


def test_a_single_route_counts_its_inputs_without_holding_them():
    import tracemalloc
    doubled = RING2_SERIES.monads * 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = check_route_independence(RING2_SERIES, X1, 4)
        streamed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        inputs = enum_stack(doubled, list(X1), 4)
        listed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total_checked() == len(inputs) == 10429
    assert streamed < listed / 4


def test_every_routes_composite_passes_its_own_monad_laws(loop_2gset, chain_2gset):
    checked = []
    for series, carrier, bound in ((RING2_SERIES, X1, 2), (RING3_SERIES, X1, 2),
                                   (RIG_SERIES, X1, 3), (composition_series(2), loop_2gset, 1),
                                   (composition_series(2), chain_2gset, 1)):
        for route in all_routes(len(series)):
            report = check_monad_laws(compose_series(series, route), carrier, bound)
            assert report.verdict == "PASS", (series.name, route, report.all_witnesses()[:1])
            checked.append(report.total_checked())
    # one route of ring2, two of ring3, five of rig, then the one of each 2-globular set
    assert sum(checked[:8]) == 7688 and checked[8:] == [27, 108]


# The four entry points that build terms or cells in bulk pause the cyclic collector.

with open(os.path.join(os.path.dirname(__file__), "data", "loop_set.gset")) as _file:
    LOOP_SET = load_gset(_file.read())

X3 = Carrier.of_size(3)


def _doubled_words(bound):
    """M(M(X2)) for the free monoid M, enumerated only as it is read."""
    yield from _stream_stack([FREE_MONOID, FREE_MONOID], list(X2), bound)


# each builds at bound 2, inside the call, and holds counts against ENUM_CEILING
PAUSED_BUILDS = {
    "compare_all": lambda: compare_all(
        _doubled_words(2),
        [("mult", FREE_MONOID.mult, lambda t: FREE_MONOID.mult(FREE_MONOID.fmap(_same, t)))]),
    "normalize_expr": partial(normalize_expr, "rig", parse_expr("(a+b+2)*(a+2)", X2)),
    "free_ncat": partial(free_ncat, LOOP_SET, 2),
    "brute_force_oracle": partial(brute_force_oracle, LOOP_SET, 2),
}


class _Ceiling:
    """An ``ENUM_CEILING`` that notes whether the collector is on whenever a
    count is held against it, and then raises ``error``, if one is given."""

    def __init__(self, error=None):
        self.error = error
        self.collector_on = set()

    def __lt__(self, count):
        self.collector_on.add(gc.isenabled())
        if self.error is not None:
            raise self.error
        return False


@pytest.fixture
def collector():
    """The collector on when the test begins, and again when it ends."""
    gc.enable()
    yield
    gc.enable()


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("caller_on", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("raised", [None, BoundTooLarge, UnsupportedNode, ZeroDivisionError],
                         ids=["return", "bound-too-large", "unsupported-node", "foreign-error"])
@pytest.mark.parametrize("build", PAUSED_BUILDS.values(), ids=PAUSED_BUILDS.keys())
def test_the_collector_ends_in_the_state_it_began_in(monkeypatch, build, raised, caller_on):
    """Paused during the call, then on again after a return or a raise,
    unless the caller had turned it off: then it stays off."""
    import distlaw.monads
    probe = _Ceiling(raised("from the ceiling") if raised in (UnsupportedNode,
                                                              ZeroDivisionError) else None)
    monkeypatch.setattr(distlaw.monads, "ENUM_CEILING", 0 if raised is BoundTooLarge else probe)
    if not caller_on:
        gc.disable()
    if raised is None:
        build()
    else:
        with pytest.raises(raised):
            build()
    assert gc.isenabled() is caller_on
    assert probe.collector_on == (set() if raised is BoundTooLarge else {False})


@pytest.mark.usefixtures("collector")
def test_the_collector_is_paused_in_every_compare_all_process(split_after):
    report, = compare_all(range(12), [("collector", lambda t: gc.isenabled(), lambda t: False)])
    assert report.passed and report.checked == 12
    assert gc.isenabled()
    _no_child_is_left()


@pytest.mark.usefixtures("collector")
def test_the_collector_settles_the_young_objects_a_call_leaves():
    value = normalize_expr("ring3", parse_expr("*".join(["(a+b+c)"] * 6), X3))
    assert gc.get_count()[0] <= gc.get_threshold()[0]
    assert len(value) == 3 ** 6


@pytest.mark.usefixtures("collector")
def test_the_collector_settles_the_middle_generation_when_it_is_due():
    """Each call leaves more young objects than the threshold.  As under the
    collector's own trigger, the middle generation's count passes its
    threshold by one, and the next collection takes that generation too;
    were each call settled by ``gc.collect(0)`` alone, it would never be
    collected, and its count would only grow."""
    node = parse_expr("*".join(["(a+b+c)"] * 6), X3)
    gc.collect()
    kept = []
    for _ in range(3 * gc.get_threshold()[1]):
        kept.append(normalize_expr("ring3", node))
        assert gc.get_count()[1] <= gc.get_threshold()[1] + 1


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("build, sizes, cycles", [
    (lambda bound: check_distlaw(LAW_PRODUCT_OVER_SUM_WORDS, X2, bound), (2, 3), 0),
    (lambda bound: validate_series(RING3_SERIES, X1, bound), (2, 3), 0),
    (lambda bound: check_route_independence(RIG_SERIES, X1, bound), (2, 3), 0),
    (lambda bound: check_yang_baxter(RING3_SERIES, 3, 2, 1, X2, bound), (2, 3), 0),
    (lambda bound: check_monad_laws(FREE_SEMIGROUP, X2, bound), (2, 3), 0),
    (lambda bound: free_ncat(LOOP_SET, bound), (2, 3), 0),
    (partial(normalize_expr, "ring3"),
     (parse_expr("a+b", X3), parse_expr("*".join(["(a+b+c)"] * 4), X3)), 0),
    (lambda src: parse_expr(src, X3), ("a+b", "*".join(["(a+b+c)"] * 4)), 0),
], ids=["check_distlaw", "validate_series", "check_route_independence", "check_yang_baxter",
        "check_monad_laws", "free_ncat", "normalize_expr", "parse_expr"])
def test_the_collector_finds_no_cycles_that_grow_with_the_work(split_after, build, sizes,
                                                                cycles):
    """With the collector off, a build leaves the same cyclic garbage at
    two sizes, so a long paused call does not pile it up.  The warm-up call
    takes the one-off imports and caches, a split's ``pickle`` among them."""
    gc.collect()
    gc.disable()
    build(sizes[0])
    gc.collect()
    found = []
    for size in sizes:
        build(size)
        found.append(gc.collect())
    assert found == [cycles, cycles]
    _no_child_is_left()
