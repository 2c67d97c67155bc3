"""Bulgarian and Carolina solitaire: maps, fibers, series, sampling."""

import bisect
import importlib.util
import itertools
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from noninv import solitaire
from noninv.endo import EndoMap, FiberHistogram, compose, degree, fiber_sizes
from noninv.solitaire import (
    CompositionDomain,
    PartitionSampler,
    bulgarian,
    bulgarian_degree,
    bulgarian_endomap,
    bulgarian_fibers,
    bulgarian_image_defects,
    carolina,
    carolina_degree,
    carolina_endomap,
    carolina_rank_table,
    check_partition,
    eta_series,
    max_preimage_bound,
    monte_carlo_bulgarian,
    partition_domain,
    partitions_desc,
)
from oracles import carolina_preimage_count

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0)..p(10)


def test_partition_enumeration():
    assert list(partitions_desc(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(11):
        assert sum(1 for _ in partitions_desc(n)) == PARTITION_COUNTS[n]
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_partition_domain_roundtrip(monkeypatch):
    dom = partition_domain(7)
    for i in range(dom.size):
        assert dom.rank(dom.unrank(i)) == i
    with pytest.raises(ValueError):
        dom.rank((6,))
    for bad in [(1, 2, 4), (6, 2), (5,), (), [4, 4]]:
        with pytest.raises(ValueError):
            dom.rank(bad)
    assert dom.rank([4, 3]) == dom.rank((4, 3))
    # Part(66) is refused before any partition is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumerated a domain above the ceiling")

    monkeypatch.setattr(solitaire, "partitions_desc", no_enumeration)
    for make in (solitaire.PartitionDomain, partition_domain):
        with pytest.raises(ValueError, match="enumeration limit"):
            make(solitaire._PARTITION_HARD_LIMIT + 1)


def test_partition_domain_cache_keeps_one_domain():
    for n in range(1, 12):
        partition_domain(n)
    assert partition_domain.cache_info().currsize == 1
    assert partition_domain(7) is partition_domain(7)
    # a map over an evicted codec still composes with one over its rebuild
    f = bulgarian_endomap(6)
    partition_domain(5)
    g = bulgarian_endomap(6)
    assert f.codec is not g.codec
    twice = EndoMap.from_function(g.codec, lambda lam: bulgarian(bulgarian(lam)))
    assert compose(f, g).table == twice.table


def test_bulgarian_examples():
    assert bulgarian((8, 3, 3, 1, 1)) == (7, 5, 2, 2)
    assert bulgarian((1, 1, 1, 1, 1)) == (5,)
    assert bulgarian((2, 1)) == (2, 1)
    for bad in [(1, 2), (2, 0), (2, -1), (2.5, 1)]:
        with pytest.raises(ValueError):
            bulgarian(bad)


def test_preimage_count_examples():
    assert solitaire._preimage_count((2, 1)) == 2
    assert solitaire._preimage_count((1, 1, 1)) == 0
    assert solitaire._preimage_count((7, 5, 2, 2)) == 2


def test_preimage_rule_matches_brute_force():
    for n in range(1, 15):
        f = bulgarian_endomap(n)
        dom = f.codec
        fib = Counter(f.table)
        for i in range(dom.size):
            assert solitaire._preimage_count(dom.unrank(i)) == fib.get(i, 0)


def test_image_is_rank_at_least_minus_one():
    for n in range(1, 15):
        f = bulgarian_endomap(n)
        dom = f.codec
        image = set(f.table)
        expected = {i for i, lam in enumerate(dom.objects())
                    if solitaire._rank(lam[0], len(lam)) >= -1}
        assert image == expected


def test_rank_and_conjugate():
    # (7, 5, 2, 2): largest part minus number of parts
    assert solitaire._rank(7, 4) == 3


def test_rank_count_symmetry():
    for n in range(1, 13):
        by_rank = Counter(solitaire._rank(lam[0], len(lam))
                          for lam in partitions_desc(n))
        for r, c in by_rank.items():
            assert by_rank[-r] == c


def test_max_preimage_bound():
    # defining property: largest w with 3w(w-1)/2 <= n
    for n in range(1, 2000):
        w = max_preimage_bound(n)
        assert 3 * w * (w - 1) <= 2 * n < 3 * w * (w + 1)
    for n in range(1, 31):
        f = bulgarian_endomap(n)
        assert max(Counter(f.table).values()) <= max_preimage_bound(n)


def test_bulgarian_degree(monkeypatch):
    assert bulgarian_degree(1) == 1
    assert bulgarian_degree(3) == Fraction(5, 3)
    # n/|f(X)| <= deg(f) <= max fiber size
    sizes = fiber_sizes(bulgarian_endomap(10).table)
    lo = Fraction(len(sizes), len(sizes) - sizes.count(0))
    assert lo <= bulgarian_degree(10) <= max(sizes)
    # Part(66) is refused before any partition is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumerated a domain above the ceiling")

    monkeypatch.setattr(solitaire, "partitions_desc", no_enumeration)
    with pytest.raises(ValueError, match="enumeration limit"):
        bulgarian_degree(66)


def test_sampler_uniformity_small():
    sampler = PartitionSampler(4)
    assert sampler.p[sampler.n] == 5
    rng = random.Random(11)
    draws = Counter(sampler.sample(rng) for _ in range(10000))
    assert set(draws) == set(partitions_desc(4))
    # each frequency within 3 sigma of 1/5 (binomial, fixed seed)
    sigma = math.sqrt(0.2 * 0.8 / 10000)
    for count in draws.values():
        assert abs(count / 10000 - 0.2) < 3 * sigma


def test_sampler_uniformity_chi_square():
    # goodness of fit over all p(6) = 11 cells at a fixed seed
    scipy_stats = pytest.importorskip("scipy.stats")
    sampler = PartitionSampler(6)
    rng = random.Random(2024)
    draws = Counter(sampler.sample(rng) for _ in range(22000))
    observed = [draws.get(lam, 0) for lam in partitions_desc(6)]
    result = scipy_stats.chisquare(observed)
    assert result.pvalue > 1e-3


def test_sampler_output_valid():
    sampler = PartitionSampler(37)
    rng = random.Random(3)
    for _ in range(200):
        lam = sampler.sample(rng)
        assert sum(lam) == 37
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def _ranpar_law(sampler, m, memo):
    """Exact output law of the sampler on m units, built from its step
    weights: k with weight sigma(k) p(m-k), then a divisor d of k with
    weight d, then the law on m - k units."""
    if m not in memo:
        p, sigma = sampler.p, sampler.sigma
        law = Counter()
        if m == 0:
            law[()] = Fraction(1)
        for k in range(1, m + 1):
            pick_k = Fraction(sigma[k] * p[m - k], m * p[m])
            for d in range(1, k + 1):
                if k % d:
                    continue
                step = pick_k * Fraction(d, sigma[k])
                assert step == Fraction(d * p[m - k], m * p[m])
                for rest, q in _ranpar_law(sampler, m - k, memo).items():
                    lam = tuple(sorted(rest + (d,) * (k // d), reverse=True))
                    law[lam] += step * q
        memo[m] = law
    return memo[m]


def test_sampler_exact_law_is_uniform():
    sampler = PartitionSampler(12)
    memo = {}
    for n in range(1, 13):
        law = _ranpar_law(sampler, n, memo)
        assert sum(law.values()) == 1
        assert dict(law) == {lam: Fraction(1, sampler.p[n])
                             for lam in partitions_desc(n)}


class _ReplayRng:
    """Replays a prefix of outcomes, then answers 0; records every
    (argument, outcome) pair it handed out.  The argument is the bound of a
    randrange call or the bit count of a getrandbits call."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.calls = []

    def randrange(self, arg):
        i = len(self.calls)
        value = self.prefix[i] if i < len(self.prefix) else 0
        self.calls.append((arg, value))
        return value

    getrandbits = randrange


def _as_bits(calls):
    """The getrandbits calls that draw randrange's (bound, outcome) calls,
    each accepted at its first draw."""
    return [(bound.bit_length(), value) for bound, value in calls]


def _every_leaf(sampler):
    """Run sampler.sample once per leaf of the linear scan's tree of
    randrange outcomes, advancing the recorded outcomes like an odometer.
    At each leaf the sampler draws the same outcomes with getrandbits and
    returns the linear scan's partition."""
    prefix = []
    while True:
        rng, oracle = _ReplayRng(prefix), _ReplayRng(prefix)
        lam = sampler.sample(rng)
        assert lam == _linear_ranpar(sampler, oracle)
        assert rng.calls == _as_bits(oracle.calls)
        weight = Fraction(1)
        for bound, _ in oracle.calls:
            weight /= bound
        yield lam, weight
        calls = oracle.calls
        while calls and calls[-1][1] + 1 == calls[-1][0]:
            calls.pop()
        if not calls:
            return
        prefix = [v for _, v in calls[:-1]] + [calls[-1][1] + 1]


def test_sampler_every_rng_outcome_is_uniform():
    for n in range(1, 7):
        sampler = PartitionSampler(n)
        mass = Counter()
        leaves = 0
        for lam, weight in _every_leaf(sampler):
            mass[lam] += weight
            leaves += 1
        assert dict(mass) == {lam: Fraction(1, sampler.p[sampler.n])
                              for lam in partitions_desc(n)}
    assert leaves == 45060  # at n = 6


def _linear_ranpar(sampler, rng):
    """One RANPAR draw by plain linear scans: k from 1 up by its weights
    sigma(k) p(m - k), then d over every integer up to k.  This was the
    sampler before its guide rows, and every draw of sampler.sample must
    equal it, rng call for rng call."""
    p, sigma = sampler.p, sampler.sigma
    parts = []
    m = sampler.n
    while m > 0:
        r = rng.randrange(m * p[m])
        k = 0
        while r >= 0:
            k += 1
            r -= sigma[k] * p[m - k]
        r = rng.randrange(sigma[k])
        d = 0
        while r >= 0:
            d += 1
            if k % d == 0:
                r -= d
        parts.extend([d] * (k // d))
        m -= k
    parts.sort(reverse=True)
    return tuple(parts)


def _same_draws(sampler, seed, draws):
    """Whether sampler.sample and _linear_ranpar give the same partitions
    and leave their rngs in the same state."""
    fast, slow = random.Random(seed), random.Random(seed)
    return ([sampler.sample(fast) for _ in range(draws)]
            == [_linear_ranpar(sampler, slow) for _ in range(draws)]
            and fast.getstate() == slow.getstate())


@pytest.mark.parametrize("seed", range(5))
def test_sampler_draws_equal_the_linear_scan(seed):
    for n in range(1, 13):
        assert _same_draws(PartitionSampler(n), seed, 100), n
    assert _same_draws(PartitionSampler(50), seed, 200)
    assert _same_draws(PartitionSampler(500), seed, 100)
    assert _same_draws(PartitionSampler(3000), seed, 50)


def test_sampler_guide_branches_equal_the_linear_scan(monkeypatch):
    sampler = PartitionSampler(50)
    p, sigma = sampler.p, sampler.sigma
    total = 50 * p[50]
    shift = total.bit_length() - 16
    prefix = list(itertools.accumulate(sigma[k] * p[50 - k]
                                       for k in range(1, 51)))
    assert prefix[-1] == total and prefix[0] >> shift > 0
    scans = []
    scan = sampler._scan

    def record(m, r, s, tie):
        scans.append((m, tie))
        return scan(m, r, s, tie)

    monkeypatch.setattr(sampler, "_scan", record)
    # the first draw picks k at m = 50; every later one answers 0.
    # Each case gives r, k, the ties of the scans at m = 50 and the row's
    # length after the draw
    for r, k, ties, row_length in [
            (prefix[4] - 1, 5, [False], 5),  # a new row, extended to k
            (total - 1, 50, [False], 50),  # extended from the exact W_50(5)
            (0, 1, [], 50),  # a guide hit: top bits below the first entry
            (prefix[9], 11, [True], 50),  # top bits equal the tenth entry
    ]:
        scans.clear()
        fast, slow = _ReplayRng([r]), _ReplayRng([r])
        assert sampler.sample(fast) == _linear_ranpar(sampler, slow)
        assert fast.calls == _as_bits(slow.calls)
        assert slow.calls[1] == (sigma[k], 0)
        assert [tie for m, tie in scans if m == 50] == ties
        assert len(sampler._rows[50]) == row_length
    assert sampler._ends[50] == total


@pytest.mark.parametrize("budget", [0, 7])
def test_sampler_spent_budget_equals_the_linear_scan(monkeypatch, budget):
    monkeypatch.setattr(solitaire, "_GUIDE_BUDGET", budget)
    sampler = PartitionSampler(500)
    assert _same_draws(sampler, 3, 50)
    assert sampler._budget == 0
    assert sum(map(len, sampler._rows)) == budget


def test_sampler_total_is_partition_count():
    for n in range(1, 31):
        sampler = PartitionSampler(n)
        assert sampler.p[sampler.n] == len(list(partitions_desc(n)))
    sampler = PartitionSampler(1000)
    assert sampler.p[sampler.n] == 24061467864032622473692149727991
    with pytest.raises(ValueError):
        PartitionSampler(0)


def test_monte_carlo_small_n_expectation():
    # exact expectation over Part(3) is (2 + 2 + 1)/3 = 5/3
    mean, sd = monte_carlo_bulgarian(3, 4000, 7)
    assert abs(mean - 5 / 3) < 0.05
    assert 0.2 < sd < 0.8
    assert monte_carlo_bulgarian(3, 50, 9) == monte_carlo_bulgarian(3, 50, 9)
    with pytest.raises(ValueError):
        monte_carlo_bulgarian(3, 0, 1)


def test_carolina_examples():
    assert carolina((3, 1, 3, 7, 1, 8)) == (6, 2, 2, 6, 7)
    assert carolina((6,)) == (1, 5)
    assert carolina((1, 1)) == (2,)
    assert carolina((1,)) == (1,)
    for bad in [(0, 2), (1, -1), (1.5,)]:
        with pytest.raises(ValueError):
            carolina(bad)


def test_carolina_fibers_match_brute_force():
    # Comp(0) = {()} and carolina(()) = (), so () is its own only preimage
    assert carolina(()) == ()
    assert carolina_preimage_count(()) == 1
    # the six preimages of (4, 7, 2) place 8, 3 in order among two ones
    assert carolina_preimage_count((4, 7, 2)) == 6
    assert carolina_preimage_count((1, 5, 5)) == 0
    for n in range(1, 13):
        f = carolina_endomap(n)
        dom = f.codec
        fib = Counter(f.table)
        total = 0
        for i in range(dom.size):
            c = dom.unrank(i)
            k = carolina_preimage_count(c)
            assert k == fib.get(i, 0)
            total += k
        assert total == dom.size


def test_composition_domain_roundtrip(monkeypatch):
    for n in range(1, 9):
        dom = CompositionDomain(n)
        seen = set()
        for r in range(dom.size):
            c = dom.unrank(r)
            assert sum(c) == n
            assert dom.rank(c) == r
            seen.add(c)
        assert len(seen) == 1 << (n - 1)
        assert list(dom.objects()) == [dom.unrank(r) for r in range(dom.size)]
    for bad in [(2, 2), (3, 0), (1, 0, 2), (4,)]:
        with pytest.raises(ValueError):
            CompositionDomain(3).rank(bad)
    # Comp(25) is refused before any composition is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumerated a domain above the ceiling")

    monkeypatch.setattr(solitaire, "_compositions", no_enumeration)
    assert CompositionDomain(solitaire._COMPOSITION_HARD_LIMIT).size == 1 << 23
    for make in (CompositionDomain, carolina_endomap):
        with pytest.raises(ValueError, match="enumeration limit"):
            make(solitaire._COMPOSITION_HARD_LIMIT + 1)


def test_carolina_rank_table_matches_object_map():
    for n in range(1, 17):
        assert list(carolina_rank_table(n)) == list(carolina_endomap(n).table)


def _no_array(*args):
    raise AssertionError("allocated a table above the ceiling")


def test_carolina_rank_table_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(solitaire, "array", _no_array)
    with pytest.raises(ValueError, match="tabulation range"):
        carolina_rank_table(0)
    with pytest.raises(ValueError, match="enumeration limit"):
        carolina_rank_table(solitaire._COMPOSITION_HARD_LIMIT + 1)


def test_codec_and_kernel_refuse_comp_25_alike(monkeypatch):
    monkeypatch.setattr(solitaire, "array", _no_array)
    messages = set()
    for make in (CompositionDomain, carolina_rank_table):
        with pytest.raises(ValueError) as refused:
            make(solitaire._COMPOSITION_HARD_LIMIT + 1)
        messages.add(str(refused.value))
    assert messages == {"Comp(25) exceeds the enumeration limit n <= 24"}


def test_eta_series_prefix():
    assert eta_series(7) == [1, 1, 2, 6, 16, 42, 114, 314]
    assert eta_series(0) == [1]
    with pytest.raises(ValueError):
        eta_series(-1)


def test_degree_three_routes_agree():
    eta = eta_series(14)
    for n in range(1, 15):
        exact = carolina_degree(n)
        assert exact == Fraction(eta[n], 1 << (n - 1))
        assert exact == degree(carolina_endomap(n))
    assert carolina_degree(2) == 1
    assert carolina_degree(3) == Fraction(3, 2)


def test_eta_identity_holds_deeper():
    eta = eta_series(300)
    for n in range(1, 301):
        assert carolina_degree(n) == Fraction(eta[n], 1 << (n - 1)), n


def test_eta_recurrence_refuses_a_fraction(monkeypatch):
    # (1 - 3x)^(-1/2) = 1 + 3x/2 + ...: the recurrence's first division
    # leaves a remainder
    monkeypatch.setattr(solitaire, "_ETA_Q", (1, -3, 0, 0, 0))
    assert eta_series(0) == [1]
    with pytest.raises(ArithmeticError, match="coefficient 1"):
        eta_series(2)


def _carolina_degree_by_comb(n):
    # the double sum with one math.comb call per binomial
    total = 1
    for c1 in range(1, n):
        for ell in range(2, n - c1 + 2):
            total += math.comb(n - c1 - 1, ell - 2) * math.comb(c1, ell - 1) ** 2
    return Fraction(total, 1 << (n - 1))


def test_rolling_binomials_match_comb_reference():
    for n in range(1, 121):
        assert carolina_degree(n) == _carolina_degree_by_comb(n), n


def _partitions_recursive(n, max_part):
    # the recursion partitions_desc replaced: first part, then the rest
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_recursive(n - first, first):
            yield (first,) + rest


def test_partitions_desc_matches_recursive_order():
    for n in range(0, 31):
        assert list(partitions_desc(n)) == list(_partitions_recursive(n, n)), n


def encode(n, lam):
    """The image key of a partition of n, from its parts."""
    pl = solitaire._part_keys(n)
    return sum(pl[v] for v in lam)


def decode(n, key):
    """The partition of n with the given key, read digit by digit."""
    pl = solitaire._part_keys(n)
    r, q = solitaire._key_radices(n)
    digits, parts = key // q, []
    for v in range(n, 0, -1):
        count, digits = divmod(digits, pl[v] // q)
        parts += [v] * count
    assert digits == 0 and key % q == n * r + len(parts) and sum(parts) == n
    return tuple(parts)


def bulgarian_classes(n):
    """The per-class key counts of Part(n), with the shape runs filled."""
    runs = [0] * ((n + 1) ** 2 + 1)
    return list(solitaire._bulgarian_classes(n, runs))


def bulgarian_keys(n):
    """Every image key of Part(n) with its fiber size, the classes joined."""
    keys = Counter()
    for cls in bulgarian_classes(n):
        assert not keys.keys() & cls.keys()  # no fiber spans two classes
        keys.update(cls)
    return keys


def test_bulgarian_fibers_match_one_move_per_partition():
    # the kernel against partitions_desc and _bulgarian, the independent
    # enumeration and move: class q holds the images of q + 1 parts
    for n in range(1, 36):
        want = Counter(map(solitaire._bulgarian, partitions_desc(n)))
        got = Counter()
        for q, cls in enumerate(bulgarian_classes(n)):
            decoded = {decode(n, k): c for k, c in cls.items()}
            assert {len(image) for image in decoded} <= {q + 1}, (n, q)
            got.update(decoded)
        assert got == want, n
        hist, image, shapes = bulgarian_fibers(n)
        assert hist == FiberHistogram.from_sizes(want.values()), n
        assert image == Counter((lam[0], sum(lam) * (n + 1) + len(lam))
                                for lam in want), n
        assert shapes == Counter((lam[0], len(lam))
                                 for lam in partitions_desc(n)), n


def test_bulgarian_image_defects_certify_and_catch():
    for n in range(1, 13):
        _, image, shapes = bulgarian_fibers(n)
        assert bulgarian_image_defects(n, image, shapes) == (0, 0)
    f = bulgarian_endomap(8)
    dom = f.codec
    _, _, shapes = bulgarian_fibers(8)
    # send one point to (1^8), of rank -7, which is never an image
    low = dom.rank((1,) * 8)
    moved = EndoMap(dom, (low,) + f.table[1:])
    keys = Counter(encode(8, dom.unrank(i)) for i in moved.table)
    outside, missed = bulgarian_image_defects(8, solitaire._decode(8, keys),
                                              shapes)
    assert outside == 1 and missed == (f.table[0] not in f.table[1:])
    # move the one preimage of a rank >= -1 image point of Part(10) to
    # (1^10): one point outside the rank >= -1 set and one missed; without
    # the moved point, the dropped fiber alone is one miss
    fibers = bulgarian_keys(10)
    _, image, shapes = bulgarian_fibers(10)
    single = next(key for key, c in fibers.items() if c == 1)
    dropped = fibers.copy()
    del dropped[single]
    injected = dropped + Counter([encode(10, (1,) * 10)])
    assert bulgarian_image_defects(
        10, solitaire._decode(10, injected), shapes) == (1, 1)
    assert bulgarian_image_defects(
        10, solitaire._decode(10, dropped), shapes) == (0, 1)
    # one more domain point of rank >= -1 than the keys is one miss
    more = dict(shapes)
    more[10, 1] += 1
    assert bulgarian_image_defects(10, image, more) == (0, 1)
    # the key of the image point (4, 2) of Part(6) replaced by that of
    # (4, 2, 1): its rank, 1, is in range, but its parts sum to 7, so it is
    # outside and (4, 2) is missed
    fibers = bulgarian_keys(6)
    _, _, shapes = bulgarian_fibers(6)
    fibers[encode(6, (4, 2, 1))] = fibers.pop(encode(6, (4, 2)))
    assert bulgarian_image_defects(
        6, solitaire._decode(6, fibers), shapes) == (1, 1)


def test_bulgarian_fibers_match_the_table():
    for n in range(1, 31):
        f = bulgarian_endomap(n)
        fibers = bulgarian_keys(n)
        assert fibers == Counter(encode(n, f.codec.unrank(i))
                                 for i in f.table), n
        assert all(type(image) is int for image in fibers)


def test_partition_ceiling_keys_never_carry():
    # at the ceiling, a partition has at most n // u parts equal to u; with
    # every such digit at its maximum, the places below v still sum to less
    # than the place of v, up to P_(n+1) = 2 P_n; at most n parts of at
    # most n each keep the low digit, sum R + length, below Q
    n = solitaire._PARTITION_HARD_LIMIT
    pl = solitaire._part_keys(n)
    r, q = solitaire._key_radices(n)
    place = [key // q for key in pl]  # P_v at index v
    for v in range(1, n + 1):
        assert sum((n // u) * place[u] for u in range(1, v)) < place[v]
    assert sum((n // u) * place[u] for u in range(1, n + 1)) < 2 * place[n]
    assert n < r and n * n * r + n < q
    assert [key % q for key in pl] == [0] + [v * r + 1 for v in range(1, n + 1)]
    for lam in [(n,), (1,) * n, (2,) * (n // 2) + (1,), (n - 1, 1),
                tuple(range(10, 0, -1)) + (1,) * (n - 55)]:
        key = encode(n, lam)
        assert decode(n, key) == lam
        assert bisect.bisect_right(pl, key) - 1 == lam[0]


def test_bulgarian_degree_50_matches_benchmark_oracle():
    # bench/oracle.py pins deg(B_50); reading it here puts that value in
    # tier-1 too
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert bulgarian_degree(50) == oracle.BULGARIAN_DEGREE[50]
