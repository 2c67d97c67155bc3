"""Tests for the tree family, inequality checks, and the ratio search."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from noninv import extremal
from noninv.endo import (EndoMap, collisions, compose, compose_tables, degree,
                         is_bijection, is_constant, iterate, iterate_table,
                         lane_columns)
from noninv.extremal import (RatioWitness, TreeSpec, all_tables,
                             build_tree_map, check_theorem3_bound,
                             check_theorem7, check_theorem7_lanes,
                             draw_tables, exhaustive_ratio_search,
                             prop1_exact_degrees, random_table,
                             stratified_degree, table_blocks,
                             theorem3_lane_failures, tree_branching,
                             tree_size, tree_spec)


def test_tree_branching_and_size():
    assert tree_branching(5, 2) == (5, 2, 2)
    assert tree_branching(10, 2) == (10, 3, 3)
    assert tree_branching(16, 3) == (16, 4, 2, 2)
    # 1 + 5 + 10, then a length-2 path below each of the 10 leaves
    assert tree_size(5, 2) == 36
    assert tree_size(10, 2) == 131
    assert tree_spec(5, 2).branching == (5, 2, 1, 1)
    with pytest.raises(ValueError):
        tree_branching(1, 2)
    with pytest.raises(ValueError):
        tree_branching(5, 1)


def test_tree_specs_are_equal_exactly_when_their_branching_is():
    # the prop1 perturbation tests pick one tree by comparing specs
    assert tree_spec(5, 2) == TreeSpec((5, 2, 1, 1))
    assert hash(tree_spec(5, 2)) == hash(TreeSpec((5, 2, 1, 1)))
    assert tree_spec(5, 2) != tree_spec(10, 2)
    assert not tree_spec(5, 2) != TreeSpec((5, 2, 1, 1))
    assert tree_spec(5, 2) != (5, 2, 1, 1)
    with pytest.raises(ValueError, match=r"^branching factors must be >= 1$"):
        TreeSpec((2, 0, 1))


def test_tree_map_structure():
    f = build_tree_map(5, 2)
    assert f.n == 36
    assert f.table[0] == 0  # root is the unique fixed point
    assert sum(1 for i, v in enumerate(f.table) if i == v) == 1
    # every non-root vertex reaches the root in at most depth steps
    depth = 2 + 2
    assert tuple(iterate(f, depth).table) == (0,) * 36


@pytest.mark.parametrize("b, k", [(2, 2), (5, 2), (10, 3), (16, 3), (63, 5),
                                  (100, 2), (300, 4)])
def test_tree_map_matches_parent_definition(b, k):
    # vertex offsets[t] + j has parent offsets[t-1] + j // branching[t-1]
    spec = tree_spec(b, k)
    sizes = spec.level_sizes
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    want = [0] * spec.size
    for t in range(1, len(sizes)):
        for j in range(sizes[t]):
            want[offsets[t] + j] = offsets[t - 1] + j // spec.branching[t - 1]
    assert list(build_tree_map(b, k).table) == want


def test_frozen_degrees_b5_k2():
    deg_f, deg_fk = prop1_exact_degrees(5, 2)
    assert deg_f == Fraction(19, 9)
    assert deg_fk == Fraction(143, 18)


def test_frozen_degrees_b10_k2():
    deg_f, deg_fk = prop1_exact_degrees(10, 2)
    assert deg_f == Fraction(301, 131)
    assert deg_fk == Fraction(1831, 131)


@pytest.mark.parametrize("b,k", [(2, 2), (3, 2), (7, 2), (4, 3), (9, 3),
                                 (16, 3), (17, 4), (30, 4)])
def test_engine_matches_stratified(b, k):
    # prop1_exact_degrees raises internally on any mismatch
    deg_f, deg_fk = prop1_exact_degrees(b, k)
    assert 1 < deg_f <= deg_fk


def test_stratified_matches_engine_for_other_iterates():
    spec = tree_spec(7, 2)
    f = build_tree_map(7, 2)
    for r in range(1, 7):
        assert stratified_degree(spec, r) == degree(iterate(f, r))
    # beyond the depth the iterate is constant
    assert stratified_degree(spec, 40) == f.n
    with pytest.raises(ValueError):
        stratified_degree(spec, 0)


def test_k2_trends():
    rows = []
    for b in (5, 10, 100, 1000):
        spec = tree_spec(b, 2)
        d1 = stratified_degree(spec, 1)
        d2 = stratified_degree(spec, 2)
        rows.append((float(d1), float(d2) / spec.size ** 0.5))
    base = [r[0] for r in rows]
    ratio = [r[1] for r in rows]
    assert base == sorted(base) and base[-1] < 3
    assert ratio == sorted(ratio, reverse=True) and ratio[-1] > 1


def test_composition_inequality_exhaustive_n3():
    equalities = 0
    for tf in all_tables(3):
        f = EndoMap.from_table(tf)
        for tg in all_tables(3):
            g = EndoMap.from_table(tg)
            holds, equal = check_theorem7(tf, tg)
            assert holds
            if equal:
                equalities += 1
                assert is_constant(f) and is_bijection(g)
    # 3 constants times 6 bijections
    assert equalities == 18


def fraction_degree(table):
    # independent route: (1/n) * sum over x of |f^-1(f(x))|
    return Fraction(sum(map(table.count, table)), len(table))


def fraction_theorem7(ft, gt):
    n = len(ft)
    lhs = fraction_degree(tuple(ft[v] for v in gt)) ** 2
    rhs = n * fraction_degree(ft) * fraction_degree(gt) ** 2
    return lhs <= rhs, lhs == rhs


def fraction_theorem3(table, k):
    n = len(table)
    fk = tuple(range(n))
    for _ in range(k):
        fk = tuple(table[v] for v in fk)
    p = 2 ** (k - 1)
    return (fraction_degree(fk) ** p
            <= fraction_degree(table) ** (2 * p - 1) * n ** (p - 1))


def test_integer_theorem7_matches_fraction_formula():
    for tf in all_tables(3):
        for tg in all_tables(3):
            assert check_theorem7(tf, tg) == fraction_theorem7(tf, tg)
    rng = random.Random(2)
    seen = set()
    for i in range(10 ** 4):
        n = 4 + i % 7
        tf = tuple(rng.randrange(n) for _ in range(n))
        tg = tuple(rng.randrange(n) for _ in range(n))
        got = check_theorem7(tf, tg)
        assert got == fraction_theorem7(tf, tg)
        seen.add(got)
    assert (True, False) in seen


def test_integer_theorem3_matches_fraction_formula():
    for n in range(1, 5):
        for t in all_tables(n):
            f = EndoMap.from_table(t)
            for k in range(1, 5):
                assert check_theorem3_bound(f, k) == fraction_theorem3(t, k)
    with pytest.raises(ValueError):
        check_theorem7((), ())
    with pytest.raises(ValueError):
        check_theorem3_bound(EndoMap.from_table(()), 1)


def test_theorem3_brackets_match_exact_powers():
    for n in range(1, 5):
        for t in all_tables(n):
            s1 = collisions(t)
            f = EndoMap.from_table(t)
            for k in range(1, 13):
                p = 1 << (k - 1)
                sk = collisions(iterate_table(t, k))
                assert check_theorem3_bound(f, k) == (sk ** p <= s1 ** (2 * p - 1))
    # real maps never fail, so the refuting bracket is checked on raw pairs
    verdicts = set()
    for a in range(1, 70):
        for b in range(1, 40):
            for p, q in ((1, 1), (2, 3), (3, 4), (8, 15), (64, 127)):
                verdict = extremal._power_le(a, p, b, q)
                assert verdict == (a ** p <= b ** q), (a, p, b, q)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_composition_inequality_edge_pairs():
    const = (2, 2, 2, 2)
    cyc = (1, 2, 3, 0)
    assert check_theorem7(const, cyc) == (True, True)
    assert check_theorem7(cyc, const) == (True, False)
    ident = (0, 1, 2, 3)
    assert check_theorem7(ident, ident) == (True, False)
    with pytest.raises(ValueError, match="different domains"):
        check_theorem7(const, (0, 1, 2))


@pytest.mark.parametrize("ft, gt", [((-1, 0), (0, 0)), ((0, 5), (0, 1)),
                                    ((0, 0), (0, -1)), ((0, 1), (2, 0))])
def test_theorem7_refuses_entries_out_of_range(ft, gt):
    # a negative entry would wrap silently and one >= n index past the end
    with pytest.raises(ValueError, match="out of range 0..1"):
        check_theorem7(ft, gt)


def test_iterate_inequality_exhaustive_small():
    for n in (1, 2, 3, 4):
        for t in all_tables(n):
            f = EndoMap.from_table(t)
            d1 = degree(f)
            for k in (1, 2, 3, 4):
                assert check_theorem3_bound(f, k)
                # iterating can only lose invertibility
                assert degree(iterate(f, k)) >= d1
    # the extremal tree family, n_b = 36 and 131 at b = 5 and 10 for k = 2
    for b in (5, 10, 100):
        for k in (2, 3):
            assert check_theorem3_bound(build_tree_map(b, k), k), (b, k)
    with pytest.raises(ValueError):
        check_theorem3_bound(EndoMap.from_table((0,)), 0)


def test_iterate_collisions_settle_within_n_steps():
    # f^(n-1) maps onto the cycle points, which f only permutes, so S(f^k)
    # is constant from k = n - 1 on and the search iterates min(k, n) times
    for n in range(1, 6):
        for t in all_tables(n):
            s, fk = [], tuple(range(n))
            for _ in range(n + 4):
                s.append(collisions(fk))
                fk = compose_tables(t, fk)
            for k in range(1, n + 4):
                assert s[k] == s[min(k, n)], (t, k)
                assert extremal._collision_pair(t, k) == (s[1], s[k])


def test_iterate_inequality_on_collapse_example():
    # deg(f)=5/3, f^2 constant: 3^2 = 9 <= (5/3)^3 * 3 = 125/9 barely fails
    # to be tight but the squared ratio 27/25 exceeds 1
    f = EndoMap.from_table((1, 2, 2))
    assert degree(f) == Fraction(5, 3)
    assert degree(iterate(f, 2)) == 3
    assert check_theorem3_bound(f, 2)
    assert Fraction(3) / Fraction(5, 3) ** 2 == Fraction(27, 25)


def test_ratio_search_finds_collapse_maximum():
    w = exhaustive_ratio_search(3, 2, 2)
    assert w.ratio_pow == Fraction(27, 25)
    assert w.gamma == 2
    assert w.recompute()
    # the reported map really achieves the ratio
    f = w.map
    assert degree(iterate(f, 2)) / degree(f) ** 2 == Fraction(27, 25)


def test_ratio_search_gamma_forms_agree():
    a = exhaustive_ratio_search(3, 2, 1.5)
    b = exhaustive_ratio_search(3, 2, Fraction(3, 2))
    assert a.gamma == b.gamma == Fraction(3, 2)
    assert a.ratio_pow == b.ratio_pow
    assert a.map.table == b.map.table
    with pytest.raises(ValueError):
        exhaustive_ratio_search(3, 2, Fraction(1, 3))


def test_ratio_search_trivial_domain():
    w = exhaustive_ratio_search(1, 3, 2)
    assert w.ratio_pow == 1
    assert w.map.table == (0,)


def test_ratio_search_four_point_oracle():
    # direct maximum over all 4^4 tables
    best = Fraction(0)
    for t in all_tables(4):
        f = EndoMap.from_table(t)
        best = max(best, degree(iterate(f, 2)) / degree(f) ** 2)
    w = exhaustive_ratio_search(4, 2, 2)
    assert w.ratio_pow == best == Fraction(10, 9)


@pytest.mark.parametrize("gamma", [0, Fraction(1, 2), Fraction(3, 2), 2,
                                   Fraction(511, 256)])
def test_ratio_search_matches_direct_scan(gamma):
    # each table's ratio as a Fraction; the largest wins, ties to the
    # lexicographically smallest table, which all_tables yields first
    a, p = Fraction(gamma).numerator, Fraction(gamma).denominator
    for n in range(1, 6):
        for k in range(1, 4):
            best, best_table = None, None
            for t in all_tables(n):
                f = EndoMap.from_table(t)
                # (deg(f^k)/deg(f)^gamma)^p, exact for gamma = a/p
                ratio = degree(iterate(f, k)) ** p / degree(f) ** a
                if best is None or ratio > best:
                    best, best_table = ratio, t
            w = exhaustive_ratio_search(n, k, gamma)
            assert (w.ratio_pow, w.map.table) == (best, best_table), (n, k)
            assert w.recompute()


def test_ratio_search_budget_guard(monkeypatch):
    # 9^9 tables are refused before any table is enumerated
    def no_scan(*args):
        raise AssertionError("scanned tables above the ceiling")

    monkeypatch.setattr(extremal, "all_tables", no_scan)
    with pytest.raises(ValueError, match="search limit"):
        exhaustive_ratio_search(extremal._SEARCH_HARD_LIMIT + 1, 2, 2)
    with pytest.raises(ValueError):
        exhaustive_ratio_search(0, 2, 2)


def test_witness_json_shape():
    w = exhaustive_ratio_search(3, 2, 2)
    obj = w.to_json()
    assert obj["map"] == {"n": 3, "table": [0, 0, 1]}
    assert obj["k"] == 2
    assert obj["gamma"] == [2, 0]
    assert obj["ratio_pow"] == [27, 25]
    assert obj["ratio_decimal"] == "1.08"
    json.dumps(obj)  # serializable as-is


_STREAM_SEEDS = (0, 1, -7, 2 ** 100, 12345)


def test_random_table_is_the_randrange_stream():
    # one generator per side carried across every n, so the state after each
    # table must match too
    for seed in _STREAM_SEEDS:
        fast, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 24):
            assert random_table(n, fast) == tuple(ref.randrange(n)
                                                  for _ in range(n))
        assert fast.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_draw_tables_is_the_random_table_stream(seed):
    # the same bytes, and the generator left in the same state, table count
    # by table count
    fast, ref = random.Random(seed), random.Random(seed)
    for n in range(1, 24):
        for count in (1, 3, 300):
            want = [random_table(n, ref) for _ in range(count)]
            assert draw_tables(n, count, fast) == bytes(
                itertools.chain(*want)), (n, count)
            assert fast.getstate() == ref.getstate(), (n, count)
    assert draw_tables(0, 5, fast) == b""
    assert draw_tables(5, 0, fast) == b""
    assert fast.getstate() == ref.getstate()
    with pytest.raises(ValueError):
        draw_tables(256, 1, fast)


def test_table_blocks_are_all_tables_in_order():
    for n in range(1, 6):
        blocks = list(table_blocks(n))
        assert all(len(b) <= n * extremal._LANE_BLOCK for b in blocks)
        assert b"".join(blocks) == bytes(itertools.chain(*all_tables(n)))


def _pairs_by_lanes(pairs):
    """check_theorem7_lanes over (f, g) pairs, as one (holds, equal) a pair."""
    n = len(pairs[0][0])
    data = bytes(itertools.chain.from_iterable(f + g for f, g in pairs))
    holds, equal = check_theorem7_lanes(lane_columns(data, n, 2 * n),
                                        lane_columns(data, n, 2 * n, n),
                                        len(pairs))
    return list(zip(holds, equal))


def test_theorem7_lanes_match_the_per_pair_check():
    for n in (1, 2, 3):
        pairs = list(itertools.product(all_tables(n), repeat=2))
        assert _pairs_by_lanes(pairs) == [check_theorem7(f, g)
                                          for f, g in pairs]
    rng = random.Random(3)
    for n in range(4, 24):
        pairs = [(random_table(n, rng), random_table(n, rng))
                 for _ in range(200)]
        # constant after bijection reaches equality in each n
        pairs.append(((0,) * n, tuple(range(n))[::-1]))
        got = _pairs_by_lanes(pairs)
        assert got == [check_theorem7(f, g) for f, g in pairs], n
        assert got[-1] == (True, True)


def test_theorem3_lanes_match_the_per_map_check():
    for n in range(1, 6):
        tables = list(all_tables(n))
        cols = lane_columns(bytes(itertools.chain(*tables)), n, n)
        for k in (1, 2, 3, 5):
            want = sum(not check_theorem3_bound(EndoMap.from_table(t), j)
                       for t in tables for j in range(1, k + 1))
            assert theorem3_lane_failures(cols, k, len(tables)) == want == 0
    with pytest.raises(ValueError):
        theorem3_lane_failures(cols, 0, len(tables))


def test_theorem3_lanes_count_each_failing_order(monkeypatch):
    # real maps never fail, so the count is checked against a comparison
    # that refuses every pair whose first count exceeds the second: at
    # j = 1 none, at j >= 2 each lane whose iterate lost invertibility
    monkeypatch.setattr(extremal, "_power_le", lambda a, p, b, q: a <= b)
    tables = list(all_tables(3))
    cols = lane_columns(bytes(itertools.chain(*tables)), 3, 3)
    want = sum(collisions(iterate_table(t, j)) > collisions(t)
               for t in tables for j in (2, 3))
    assert theorem3_lane_failures(cols, 3, len(tables)) == want > 0


def _table_by_table_search(n, k, gamma):
    """The ratio search one table at a time: its first table of each
    collision pair, the pairs' exact powered ratios, the smallest table
    among the maximal ones."""
    a, m = extremal._normalize_gamma(gamma)
    first = {}
    for table in all_tables(n):
        first.setdefault(extremal._collision_pair(table, k), table)
    ratios = {pair: Fraction(*extremal._ratio_terms(n, *pair, a, m))
              for pair in first}
    best = max(ratios.values())
    return min(first[p] for p, r in ratios.items() if r == best), best


@pytest.mark.parametrize("gamma", [1, Fraction(3, 2), 2])
def test_lane_search_matches_the_table_by_table_search(gamma):
    for n in range(1, 6):
        for k in (1, 2, 3, 5):
            w = exhaustive_ratio_search(n, k, gamma)
            assert (w.map.table, w.ratio_pow) == _table_by_table_search(
                n, k, gamma), (n, k)
            assert w.recompute()
