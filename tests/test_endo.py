import itertools
import random
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from noninv import endo
from noninv.bubble import WordDomain, bubble_endomap
from noninv.endo import (
    EndoMap,
    FiberHistogram,
    IndexDomain,
    collisions,
    compose,
    compose_tables,
    degree,
    fiber_counts,
    fiber_sizes,
    is_bijection,
    is_constant,
    iterate,
    iterate_collisions,
    iterate_table,
    lane_collisions,
    lane_columns,
    lane_compose,
    lane_iterate,
)
from noninv.nibble import chip_endomap, nibble_binary_endomap
from noninv.perms import permutation_domain


def oracle_degree(table):
    # independent route: (1/n) * sum over domain points of |f^-1(f(x))|
    n = len(table)
    return Fraction(sum(sum(1 for y in table if y == table[x]) for x in range(n)), n)


def oracle_pairs(table):
    n = len(table)
    return sum(1 for x in range(n) for y in range(n) if table[x] == table[y])


def bounds(f):
    # the sandwich n/|f(X)| <= deg(f) <= max fiber size
    sizes = fiber_sizes(f.table)
    return Fraction(f.n, f.n - sizes.count(0)), max(sizes)


# the 3-point map 1 -> 2, 2 -> 3, 3 -> 3 (indices 0-based)
INTRO = EndoMap.from_table([1, 2, 2])


def test_intro_example_degree():
    assert degree(INTRO) == Fraction(5, 3)
    assert oracle_degree(INTRO.table) == Fraction(5, 3)


def test_intro_example_square_is_constant():
    sq = iterate(INTRO, 2)
    assert sq.table == (2, 2, 2)
    assert degree(sq) == 3
    assert is_constant(sq)


def test_intro_example_histogram_and_bounds():
    hist = FiberHistogram.from_map(INTRO)
    assert hist.counts == {0: 1, 1: 1, 2: 1}
    assert hist.degree() == Fraction(5, 3)
    lo, hi = bounds(INTRO)
    assert (lo, hi) == (Fraction(3, 2), 2)


def test_compose_order_convention():
    # compose(f, g) applies g first
    f = EndoMap.from_table([1, 2, 2])
    g = EndoMap.from_table([0, 0, 1])
    assert compose(f, g).table == (1, 1, 2)
    assert compose(g, f).table == (0, 1, 1)


def test_compose_size_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        compose(EndoMap.from_table([0]), EndoMap.from_table([0, 1]))


def test_collisions_match_brute_force_pair_count():
    for n in range(5):
        for table in itertools.product(range(n), repeat=n):
            assert collisions(table) == oracle_pairs(table)
            assert sum(fiber_sizes(table)) == n


def oracle_counts(table):
    """fiber_counts from the list of fiber sizes."""
    return dict(Counter(fiber_sizes(table)))


def test_fiber_counts_carry_past_a_byte():
    # point y < 8 has a fiber of sizes[y] points, and points 8..15 one
    # point each, so the points past 15 have empty fibers
    sizes = (0, 1, 255, 256, 257, 511, 512, 65536)
    table = [y for y, s in enumerate(sizes) for _ in range(s)]
    table += range(len(sizes), 2 * len(sizes))
    n = len(table)
    want = oracle_counts(table)
    assert want[65536] == want[512] == want[257] == want[256] == 1
    for images in (table, tuple(table), array("I", table), iter(table)):
        assert fiber_counts(images, n) == want
    assert collisions(table) == sum(s * s for s in sizes) + len(sizes)
    # a constant map of 2^16 + 3 points, and the one-point table
    for table in ([5] * (65536 + 3), [0]):
        n = len(table)
        assert fiber_counts(table, n) == oracle_counts(table)
        assert fiber_counts(array("I", table), n) == oracle_counts(table)
        assert collisions(tuple(table)) == n * n
    assert fiber_counts((), 0) == {}


def test_iterate_collisions_count_the_iterate():
    # the last composition is streamed in chunks; the largest size has a
    # one-key final chunk
    rng = random.Random(16)
    for n in (1, 2, 7, 100, 2 * endo._COMPOSE_CHUNK + 1):
        table = tuple(rng.randrange(n) for _ in range(n))
        for t in (table, list(table), array("I", table)):
            for k in (0, 1, 2, 3, 4, 5, 30):
                assert iterate_collisions(t, k) == \
                    collisions(iterate_table(table, k)), (n, k)


def oracle_compose(ft, gt):
    out = []
    for v in gt:
        out.append(ft[v])
    return tuple(out)


def test_fiber_kernels_accept_compact_tables():
    for table in ([0], [2, 2, 0, 1], [3, 3, 3, 3], list(range(5))[::-1]):
        compact = array("I", table)
        assert fiber_sizes(compact) == fiber_sizes(table)
        assert collisions(compact) == collisions(table)


def test_compose_and_iterate_match_loop_oracle_on_small_domains():
    # itemgetter needs at least one key and returns a bare item for one key
    for n in (0, 1, 2):
        tables = list(itertools.product(range(n), repeat=n))
        for ft in tables:
            f = EndoMap.from_table(ft)
            for gt in tables:
                assert compose(f, EndoMap.from_table(gt)).table == \
                    oracle_compose(ft, gt)
            want = tuple(range(n))
            for k in range(4):
                assert iterate(f, k).table == want
                want = oracle_compose(ft, want)


def oracle_iterate(table, k):
    # the identity at k = 0, else f followed by k - 1 plain compositions
    if k == 0:
        return tuple(range(len(table)))
    out = tuple(table)
    for _ in range(k - 1):
        out = oracle_compose(table, out)
    return out


def test_iterate_table_by_squaring_matches_loop_oracle():
    rng = random.Random(14)
    for n in range(13):
        for _ in range(4):
            table = tuple(rng.randrange(n) for _ in range(n))
            compact = array("I", table)
            for k in range(41):
                want = oracle_iterate(table, k)
                got = iterate_table(table, k)
                assert type(got) is tuple and got == want, (table, k)
                got = iterate_table(list(table), k)
                assert type(got) is tuple and got == want, (table, k)
                got = iterate_table(compact, k)
                assert type(got) is array and got.typecode == "I", (table, k)
                assert tuple(got) == want, (table, k)
    for table in ((0,), array("I", [0])):
        with pytest.raises(ValueError):
            iterate_table(table, -1)


def test_compose_tables_keeps_the_type_of_g():
    # the largest size ends in a one-key chunk, which itemgetter would
    # return as a bare item
    rng = random.Random(15)
    for n in (0, 1, 2, 7, 2 * endo._COMPOSE_CHUNK + 1):
        ft = tuple(rng.randrange(n) for _ in range(n))
        gt = tuple(rng.randrange(n) for _ in range(n))
        want = oracle_compose(ft, gt)
        for f in (ft, array("I", ft)):
            got = compose_tables(f, gt)
            assert type(got) is tuple and got == want
            got = compose_tables(f, array("I", gt))
            assert type(got) is array and got.typecode == "I"
            assert tuple(got) == want


def test_compact_tables_are_kept_and_range_checked():
    compact = array("I", [1, 2, 2])
    f = EndoMap.from_table(compact)
    assert f.table is compact and degree(f) == degree(INTRO)
    assert type(iterate(f, 2).table) is array
    assert tuple(iterate(f, 2).table) == iterate(INTRO, 2).table
    with pytest.raises(ValueError, match=r"table entry 3 out of range 0\.\.2"):
        EndoMap.from_table(array("I", [0, 3, 1]))
    # a signed typecode still has its minimum checked
    with pytest.raises(ValueError, match=r"table entry -1 out of range 0\.\.2"):
        EndoMap.from_table(array("i", [0, -1, 1]))


def test_compose_rejects_different_codecs():
    perm_map = bubble_endomap(3)
    index_map = EndoMap.from_table([0, 0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match="different domains"):
        compose(perm_map, index_map)
    with pytest.raises(ValueError, match="different domains"):
        compose(index_map, perm_map)
    assert IndexDomain(6) == index_map.codec
    assert hash(IndexDomain(6)) == hash(index_map.codec)
    assert IndexDomain(5) != index_map.codec
    assert compose(perm_map, perm_map).table == iterate(perm_map, 2).table
    # codecs built apart from equal arguments are one domain
    assert compose(nibble_binary_endomap(4), chip_endomap(4)).n == 16
    assert WordDomain((2, 1)) == WordDomain((2, 1))
    assert WordDomain((2, 1)) != WordDomain((1, 2))
    assert permutation_domain(0) != permutation_domain(1)


def test_iterate_zero_is_identity():
    assert iterate(INTRO, 0).table == (0, 1, 2)
    with pytest.raises(ValueError):
        iterate(INTRO, -1)


def test_table_validation():
    with pytest.raises(ValueError, match=r"^table entry 3 out of range 0\.\.2$"):
        EndoMap.from_table([0, 3, 1])
    with pytest.raises(ValueError, match=r"^table length 1 != domain size 2$"):
        EndoMap(IndexDomain(2), (0,))


def test_validation_runs_once_per_construction(monkeypatch):
    # bench/tracer.py wraps EndoMap.__post_init__ on the class as the span
    # endo.validate, so every construction must call it through the class
    calls = []
    real = EndoMap.__post_init__
    monkeypatch.setattr(EndoMap, "__post_init__",
                        lambda self: calls.append(len(self.table)) or real(self))
    EndoMap(IndexDomain(3), (1, 2, 2))
    EndoMap.from_table([1, 2, 2])
    EndoMap.from_function(IndexDomain(4), lambda x: x // 2)
    compose(INTRO, INTRO)
    iterate(INTRO, 3)
    assert calls == [3, 3, 4, 3, 3]
    with pytest.raises(ValueError):
        EndoMap.from_table([0, 5])
    assert calls == [3, 3, 4, 3, 3, 2]


def test_empty_domain_rejected():
    with pytest.raises(ValueError):
        degree(EndoMap.from_table([]))


def test_degree_extremes_exhaustive_n3():
    # deg = 1 exactly for bijections, deg = n exactly for constants
    for table in itertools.product(range(3), repeat=3):
        f = EndoMap.from_table(table)
        d = degree(f)
        assert (d == 1) == is_bijection(f)
        assert (d == 3) == is_constant(f)
        assert 1 <= d <= 3


def test_bounds_sandwich_exhaustive_n4():
    for table in itertools.product(range(4), repeat=4):
        f = EndoMap.from_table(table)
        lo, hi = bounds(f)
        assert lo <= degree(f) <= hi


def test_iterate_degree_monotone():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 10)
        f = EndoMap.from_table([rng.randrange(n) for _ in range(n)])
        degs = [degree(iterate(f, k)) for k in range(1, 5)]
        assert all(b >= a for a, b in zip(degs, degs[1:]))
        assert degs[0] >= 1


@given(st.integers(1, 40).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
def test_histogram_invariants_property(table):
    f = EndoMap.from_table(table)
    hist = FiberHistogram.from_map(f)
    n = f.n
    assert sum(hist.counts.values()) == n
    assert sum(s * c for s, c in hist.counts.items()) == n
    assert hist.degree() == degree(f) == oracle_degree(f.table)
    lo, hi = bounds(f)
    assert lo <= hist.degree() <= hi


def test_pseudoconjugacy_equivalence_and_degree():
    rng = random.Random(3)
    maps = [EndoMap.from_table([rng.randrange(6) for _ in range(6)]) for _ in range(12)]
    # pseudoconjugacy, equal fiber histograms, is equality of one key, so
    # an equivalence; pseudoconjugate maps have equal degrees
    hists = [FiberHistogram.from_map(f) for f in maps]
    for f, hf in zip(maps, hists):
        for g, hg in zip(maps, hists):
            if hf == hg:
                assert degree(f) == degree(g)


def test_conjugation_preserves_histogram():
    # relabeled maps are pseudoconjugate
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 8)
        table = [rng.randrange(n) for _ in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        relabeled = [0] * n
        for i in range(n):
            relabeled[sigma[i]] = sigma[table[i]]
        assert (FiberHistogram.from_map(EndoMap.from_table(table))
                == FiberHistogram.from_map(EndoMap.from_table(relabeled)))


def test_histogram_independent_of_codec_labels():
    h = FiberHistogram.from_map(INTRO)
    assert h.n == 3
    assert h == FiberHistogram({0: 1, 1: 1, 2: 1})


def test_histograms_are_equal_exactly_when_their_counts_are():
    h = FiberHistogram({0: 1, 1: 1, 2: 1})
    assert h == FiberHistogram({0: 1, 1: 1, 2: 1})
    assert not h != FiberHistogram({0: 1, 1: 1, 2: 1})
    assert h != FiberHistogram({1: 3}) and not h == FiberHistogram({1: 3})
    assert h != FiberHistogram({0: 1, 1: 1, 2: 1, 3: 0})
    # a histogram equals no other type, not even the dict of its counts
    assert h != {0: 1, 1: 1, 2: 1}


def test_histogram_from_image_sizes_fills_empty_fibers():
    # the domain size is sum s * c, so the codomain points a count of the
    # image leaves out have empty fibers
    full = FiberHistogram.from_map(INTRO)
    assert FiberHistogram.from_sizes([2, 1]) == full
    assert FiberHistogram.from_sizes({5: 2, 7: 1}.values()) == full
    assert FiberHistogram.from_sizes([1, 1, 1]).counts == {1: 3}


def _lane_cases():
    """(n, tables) pairs: every table for n <= 3, random ones up to n = 23."""
    rng = random.Random(7)
    for n in range(1, 24):
        if n <= 3:
            yield n, list(itertools.product(range(n), repeat=n))
        else:
            yield n, [tuple(rng.randrange(n) for _ in range(n))
                      for _ in range(40)]


def _unpack(cols, lanes):
    """The tables of lane columns, one tuple per lane."""
    return list(zip(*(col.to_bytes(lanes, "little") for col in cols)))


def test_lane_columns_put_each_table_in_one_byte_lane():
    data = bytes([0, 1, 2, 2, 1, 0, 1, 1, 1])
    assert lane_columns(data, 3, 3) == [0x010200, 0x010101, 0x010002]
    # every other table, starting at the second
    assert lane_columns(data, 3, 6, 3) == [0x02, 0x01, 0x00]
    for n, tables in _lane_cases():
        cols = lane_columns(bytes(itertools.chain(*tables)), n, n)
        assert _unpack(cols, len(tables)) == tables


def test_lane_kernels_match_the_per_table_kernels():
    for n, tables in _lane_cases():
        lanes = len(tables)
        cols = lane_columns(bytes(itertools.chain(*tables)), n, n)
        assert lane_collisions(cols, lanes) == list(map(collisions, tables))
        # f runs over the tables, g over the same tables rotated by one
        gs = tables[1:] + tables[:1]
        gcols = lane_columns(bytes(itertools.chain(*gs)), n, n)
        assert _unpack(lane_compose(cols, gcols, lanes), lanes) == [
            compose_tables(f, g) for f, g in zip(tables, gs)]
        for k in (1, 2, 3, 5, 8):
            assert _unpack(lane_iterate(cols, k, lanes), lanes) == [
                iterate_table(t, k) for t in tables], (n, k)


def test_lane_kernels_refuse_more_than_23_points():
    cols = lane_columns(bytes(24), 24, 24)
    for kernel in (lambda: lane_collisions(cols, 1),
                   lambda: lane_compose(cols, cols, 1),
                   lambda: lane_iterate(cols, 2, 1)):
        with pytest.raises(ValueError, match="n <= 23"):
            kernel()
    with pytest.raises(ValueError):
        lane_iterate(cols[:3], 0, 1)
