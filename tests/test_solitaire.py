"""Bulgarian and Carolina solitaire: maps, fibers, series, sampling."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from noninv.endo import degree, degree_bounds
from noninv.solitaire import (
    CompositionDomain,
    PartitionSampler,
    bulgarian,
    bulgarian_degree,
    bulgarian_endomap,
    bulgarian_image_defects,
    bulgarian_preimage_count,
    carolina,
    carolina_asymptotic_report,
    carolina_degree,
    carolina_degree_asymptotic,
    carolina_endomap,
    carolina_growth_root,
    carolina_preimage_count,
    carolina_preimages,
    check_partition,
    conjugate,
    eta_series,
    max_preimage_bound,
    monte_carlo_bulgarian,
    partition_domain,
    partition_rank,
    partitions_desc,
    random_partition,
)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]  # p(0)..p(10)


def test_partition_enumeration():
    assert list(partitions_desc(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(11):
        assert sum(1 for _ in partitions_desc(n)) == PARTITION_COUNTS[n]
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_partition_domain_roundtrip():
    dom = partition_domain(7)
    for i in range(dom.size):
        assert dom.rank(dom.unrank(i)) == i
    with pytest.raises(ValueError):
        dom.rank((6,))
    for bad in [(1, 2, 4), (6, 2), (5,), (), [4, 4]]:
        with pytest.raises(ValueError):
            dom.rank(bad)
    assert dom.rank([4, 3]) == dom.rank((4, 3))


def test_bulgarian_examples():
    assert bulgarian((8, 3, 3, 1, 1)) == (7, 5, 2, 2)
    assert bulgarian((1, 1, 1, 1, 1)) == (5,)
    assert bulgarian((2, 1)) == (2, 1)
    for bad in [(1, 2), (2, 0), (2, -1), (2.5, 1)]:
        with pytest.raises(ValueError):
            bulgarian(bad)


def test_preimage_count_examples():
    assert bulgarian_preimage_count((2, 1)) == 2
    assert bulgarian_preimage_count((1, 1, 1)) == 0
    assert bulgarian_preimage_count((7, 5, 2, 2)) == 2


def test_preimage_rule_matches_brute_force():
    for n in range(1, 15):
        f = bulgarian_endomap(n)
        dom = f.codec
        fib = Counter(f.table)
        for i in range(dom.size):
            assert bulgarian_preimage_count(dom.unrank(i)) == fib.get(i, 0)


def test_image_is_rank_at_least_minus_one():
    for n in range(1, 15):
        f = bulgarian_endomap(n)
        dom = f.codec
        image = set(f.table)
        expected = {i for i in range(dom.size)
                    if partition_rank(dom.unrank(i)) >= -1}
        assert image == expected


def test_rank_and_conjugate():
    assert partition_rank((7, 5, 2, 2)) == 3
    assert conjugate((3, 1)) == (2, 1, 1)
    for lam in partitions_desc(9):
        assert conjugate(conjugate(lam)) == lam
        assert partition_rank(conjugate(lam)) == -partition_rank(lam)


def test_rank_count_symmetry():
    for n in range(1, 13):
        by_rank = Counter(partition_rank(lam) for lam in partitions_desc(n))
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


def test_bulgarian_degree():
    assert bulgarian_degree(1) == 1
    assert bulgarian_degree(3) == Fraction(5, 3)
    lo, hi = degree_bounds(bulgarian_endomap(10))
    assert lo <= bulgarian_degree(10) <= hi
    with pytest.raises(ValueError, match="limit"):
        bulgarian_degree(51)


def test_sampler_uniformity_small():
    sampler = PartitionSampler(4)
    assert sampler.total == 5
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
    """Replays a prefix of randrange outcomes, then answers 0; records every
    (bound, outcome) pair it handed out."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.calls = []

    def randrange(self, bound):
        i = len(self.calls)
        value = self.prefix[i] if i < len(self.prefix) else 0
        self.calls.append((bound, value))
        return value


def _every_leaf(sampler):
    """Run sampler.sample once per leaf of its tree of randrange outcomes,
    advancing the recorded outcomes like an odometer."""
    prefix = []
    while True:
        rng = _ReplayRng(prefix)
        lam = sampler.sample(rng)
        weight = Fraction(1)
        for bound, _ in rng.calls:
            weight /= bound
        yield lam, weight
        calls = rng.calls
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
        assert dict(mass) == {lam: Fraction(1, sampler.total)
                              for lam in partitions_desc(n)}
    assert leaves == 45060  # at n = 6


def test_sampler_total_is_partition_count():
    for n in range(1, 31):
        assert PartitionSampler(n).total == len(list(partitions_desc(n)))
    assert PartitionSampler(1000).total == 24061467864032622473692149727991


def test_random_partition_deterministic():
    assert random_partition(1, 5) == (1,)
    assert random_partition(30, 12) == random_partition(30, 12)
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


def test_carolina_preimages_listing():
    assert carolina_preimages((4, 7, 2)) == [
        (8, 3, 1, 1), (8, 1, 3, 1), (8, 1, 1, 3),
        (1, 8, 3, 1), (1, 8, 1, 3), (1, 1, 8, 3),
    ]
    assert carolina_preimage_count((4, 7, 2)) == 6
    assert carolina_preimages((1, 5, 5)) == []
    assert carolina_preimage_count((1, 5, 5)) == 0


def test_carolina_fibers_match_brute_force():
    for n in range(1, 13):
        f = carolina_endomap(n)
        dom = f.codec
        fib = Counter(f.table)
        total = 0
        for i in range(dom.size):
            c = dom.unrank(i)
            k = carolina_preimage_count(c)
            assert k == fib.get(i, 0)
            pres = carolina_preimages(c)
            assert len(pres) == k
            assert all(carolina(p) == c for p in pres)
            total += k
        assert total == dom.size


def test_composition_domain_roundtrip():
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
    eta = eta_series(40)
    for n in range(1, 41):
        assert carolina_degree(n) == Fraction(eta[n], 1 << (n - 1))


def test_growth_root_and_asymptotics():
    rho = carolina_growth_root()
    assert 0.339 < rho < 0.340
    q = 1 - 4 * rho + 4 * rho ** 2 - 4 * rho ** 3 + 4 * rho ** 4
    assert abs(q) < 1e-10
    rows = carolina_asymptotic_report(40, start=20)
    ratios = [r["ratio"] for r in rows]
    assert all(0.9 < r < 1.1 for r in ratios)
    # drift toward 1 over the tail
    assert abs(ratios[-1] - 1) < abs(ratios[0] - 1)
    assert carolina_degree_asymptotic(40) == pytest.approx(
        rows[-1]["asymptotic"])


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
        for max_part in range(0, n + 2):
            assert list(partitions_desc(n, max_part)) == \
                list(_partitions_recursive(n, max_part)), (n, max_part)
        assert list(partitions_desc(n)) == list(_partitions_recursive(n, n))


def test_bulgarian_image_defects_certify_and_catch():
    from noninv.endo import EndoMap
    for n in range(1, 13):
        assert bulgarian_image_defects(bulgarian_endomap(n)) == (0, 0)
    f = bulgarian_endomap(8)
    dom = f.codec
    # send one point to (1^8), of rank -7, which is never an image
    low = dom.rank((1,) * 8)
    moved = EndoMap(dom, (low,) + f.table[1:])
    outside, missed = bulgarian_image_defects(moved)
    assert outside == 1 and missed == (f.table[0] not in f.table[1:])
