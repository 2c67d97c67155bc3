"""Iterate-versus-base degree comparisons and extremal examples.

The tree family: for b >= 2 let b_i = floor(b^(1/2^i)) for i < k and
b_k = b_{k-1}.  T_b branches b_0, ..., b_{k-1} for the first k levels and
then hangs a path of length b_k under every depth-k vertex.  F_b sends each
vertex to its parent and fixes the root.  As b grows, deg(F_b) tends to
k + 1 while deg(F_b^k) is on the order of n_b^(1 - 1/2^(k-1)), which makes
the family extremal for the iterate-versus-base inequality

    deg(f^k)^(2^(k-1)) <= deg(f)^(2^k - 1) * n^(2^(k-1) - 1).

The composition inequality deg(f o g)^2 <= n deg(f) deg(g)^2 holds with
equality exactly when f is constant and g is a bijection.

The ratio search maximizes deg(f^k)/deg(f)^gamma over all endofunctions of
[n] for dyadic gamma = a/2^m; ratios are compared by their 2^m-th powers,
which are exact rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import Counter
from fractions import Fraction
from math import isqrt
from operator import eq, le, mul

from .endo import (EndoMap, FiberHistogram, collisions, compose_tables,
                   iterate_collisions, iterate_table, lane_collisions,
                   lane_columns, lane_compose, lane_iterate)

# ---------------------------------------------------------------------------
# the extremal tree family


def tree_branching(b: int, k: int) -> tuple[int, ...]:
    """The factors b_0, ..., b_k: iterated floor square roots, last repeated."""
    if b < 2 or k < 2:
        raise ValueError("need b >= 2 and k >= 2")
    factors = [b]
    for _ in range(k - 1):
        factors.append(isqrt(factors[-1]))
    factors.append(factors[-1])
    return tuple(factors)


def tree_spec(b: int, k: int) -> tuple[tuple[int, ...], int]:
    """T_b as (branching, path): branching[t] children below each depth-t
    vertex for t < k, then a path of b_k vertices below each depth-k one."""
    bs = tree_branching(b, k)
    return bs[:k], bs[k]


def _level_sizes(branching: tuple[int, ...]) -> list[int]:
    """L_0, ..., L_k: the vertex counts of the branching levels."""
    return list(itertools.accumulate(branching, mul, initial=1))


def tree_size(b: int, k: int) -> int:
    branching, path = tree_spec(b, k)
    sizes = _level_sizes(branching)
    return sum(sizes) + path * sizes[-1]


def build_tree_map(b: int, k: int) -> EndoMap:
    """Parent map of T_b with vertices in depth-lexicographic order.

    Vertex j of level t <= k has parent j // branching[t-1] of level t - 1,
    so level t's slice of the table lists level t - 1's vertices, each
    repeated branching[t-1] times; a path vertex's parent sits one level
    (L_k vertices) lower, so the path's slice is one range.  Each slice is
    appended in one C-level pass to an ``array('I')`` (4 bytes per vertex).
    """
    branching, path = tree_spec(b, k)
    sizes = _level_sizes(branching)
    table = array("I", [0])
    start = 0
    for width, size in zip(branching, sizes):
        parents = range(start, start + size)
        if width == 1:
            table.extend(parents)
        else:
            table.extend(itertools.chain.from_iterable(
                map(itertools.repeat, parents, itertools.repeat(width))))
        start += size
    table.extend(range(start, start + path * sizes[-1]))
    return EndoMap.from_table(table)


def stratified_degree(spec: tuple[tuple[int, ...], int],
                      r: int = 1) -> Fraction:
    """Degree of the r-th iterate of the parent map, from depth strata alone.

    The root's fiber consists of every vertex within distance r of the root
    (the root is a fixed point); a depth-t vertex's fiber is its set of
    depth-(t+r) descendants, empty once t + r exceeds the depth k + path.
    The path levels all hold L_k vertices with fibers of one, so they are
    summed in closed form, in O(k^2) for any path length.
    """
    if r < 1:
        raise ValueError("iterate order must be >= 1")
    branching, path = spec
    sizes = _level_sizes(branching)
    k, leaves = len(branching), sizes[-1]
    root = sum(sizes[:min(r, k) + 1]) + max(0, min(r, k + path) - k) * leaves
    total = root * root + max(0, path - r) * leaves
    for t in range(1, min(k, k + path - r) + 1):
        fiber = math.prod(branching[t:t + r])
        total += sizes[t] * fiber * fiber
    return Fraction(total, sum(sizes) + path * leaves)


def prop1_degrees(b: int, k: int) -> tuple[
        tuple[FiberHistogram, Fraction], tuple[Fraction, Fraction]]:
    """F_b and F_b^k two ways: (engine, closed form).

    The engine pair is F_b's fiber histogram and deg(F_b^k), both from the
    generic fiber count over the explicit map; the closed pair is deg(F_b)
    and deg(F_b^k) from the depth-stratified formula.  ``degree tree`` and
    ``verify prop1`` both read it.  The iterate's table is a composition of
    a validated table, so it is counted without another range check, and
    as it is composed, so F^k's table is never stored.
    """
    f = build_tree_map(b, k)
    engine = (FiberHistogram.from_map(f),
              Fraction(iterate_collisions(f.table, k), f.n))
    return engine, stratified_degrees(b, k)


def stratified_degrees(b: int, k: int) -> tuple[Fraction, Fraction]:
    """deg(F_b) and deg(F_b^k) from the depth strata alone."""
    spec = tree_spec(b, k)
    return stratified_degree(spec, 1), stratified_degree(spec, k)


def prop1_exact_degrees(b: int, k: int) -> tuple[Fraction, Fraction]:
    """deg(F_b) and deg(F_b^k), certified two ways.

    The generic fiber count over the explicit map must match the
    depth-stratified closed form exactly; any disagreement raises.
    """
    (hist, engine_fk), (closed_f, closed_fk) = prop1_degrees(b, k)
    engine_f = hist.degree()
    if (engine_f, engine_fk) != (closed_f, closed_fk):
        raise RuntimeError(
            f"stratified degrees {closed_f}, {closed_fk} disagree with "
            f"engine {engine_f}, {engine_fk} at b={b}, k={k}")
    return closed_f, closed_fk


# ---------------------------------------------------------------------------
# exact inequality checks


# With S(f) = n deg(f) the collision count, n cancels from both inequalities,
# so each is compared exactly on integers:
#     deg(f o g)^2 <= n deg(f) deg(g)^2          <=>  S(f o g)^2 <= S(f) S(g)^2
#     deg(f^k)^p <= deg(f)^(2p - 1) n^(p - 1)    <=>  S(f^k)^p <= S(f)^(2p - 1)
# with p = 2^(k-1).


def check_theorem7(ft, gt) -> tuple[bool, bool]:
    """Exact check of deg(f o g)^2 <= n deg(f) deg(g)^2, plus equality flag.

    f and g are index tables over 0..n-1; an entry outside that range is
    refused (ValueError).  This per-pair check is the oracle of
    ``check_theorem7_lanes`` in tests/test_extremal.py.
    """
    if not ft:
        raise ValueError("degree is undefined on the empty domain")
    if len(ft) != len(gt):
        raise ValueError("cannot compose maps over different domains")
    for table in (ft, gt):
        EndoMap.from_table(table)  # refuses an entry outside 0..n-1
    sg = collisions(gt)
    lhs = collisions(compose_tables(ft, gt)) ** 2
    rhs = collisions(ft) * sg * sg
    return lhs <= rhs, lhs == rhs


def check_theorem7_lanes(fcols: list[int], gcols: list[int], lanes: int,
                         ) -> tuple[list[bool], list[bool]]:
    """check_theorem7 in every lane of the lane columns of f and g: the
    lists of its two flags, holds and equal, lane by lane."""
    sf = lane_collisions(fcols, lanes)
    sg = lane_collisions(gcols, lanes)
    sh = lane_collisions(lane_compose(fcols, gcols, lanes), lanes)
    lhs = list(map(mul, sh, sh))
    rhs = list(map(mul, map(mul, sf, sg), sg))
    return list(map(le, lhs, rhs)), list(map(eq, lhs, rhs))


def check_theorem3_bound(f: EndoMap, k: int) -> bool:
    """Exact check of deg(f^k)^(2^(k-1)) <= deg(f)^(2^k - 1) n^(2^(k-1) - 1).

    This per-map check is the oracle of ``theorem3_lane_failures`` in
    tests/test_extremal.py.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.n == 0:
        raise ValueError("degree is undefined on the empty domain")
    p = 1 << (k - 1)
    return _power_le(collisions(iterate_table(f.table, k)), p,
                     collisions(f.table), 2 * p - 1)


def theorem3_lane_failures(cols: list[int], k: int, lanes: int) -> int:
    """How many (lane, j), j <= k, fail the bound of check_theorem3_bound.

    f^j = f o f^(j-1) is composed in the lanes; the bound depends on a lane
    only through (S(f^j), S(f)), so each distinct pair is compared once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    s1 = lane_collisions(cols, lanes)
    failures = 0
    fj = cols
    for j in range(1, k + 1):
        if j > 1:
            fj = lane_compose(cols, fj, lanes)
        p = 1 << (j - 1)
        for (sj, s), count in Counter(zip(lane_collisions(fj, lanes), s1)).items():
            if not _power_le(sj, p, s, 2 * p - 1):
                failures += count
    return failures


def _power_le(a: int, p: int, b: int, q: int) -> bool:
    """a^p <= b^q, exactly, for integers a, b >= 1 and q >= p >= 1.

    It holds when a <= b.  Otherwise bit lengths bracket the powers,
    2^(p (bl(a) - 1)) <= a^p < 2^(p bl(a)) and likewise for b^q, which
    decides every pair whose brackets do not overlap; only the rest are
    raised to their powers.
    """
    if a <= b:
        return True
    bits_a, bits_b = a.bit_length(), b.bit_length()
    if p * bits_a <= q * (bits_b - 1):
        return True
    if p * (bits_a - 1) >= q * bits_b:
        return False
    return a ** p <= b ** q


# ---------------------------------------------------------------------------
# exhaustive and randomized endofunction scans


def all_tables(n: int):
    """Every endofunction table on n points, lexicographically."""
    return itertools.product(range(n), repeat=n)


# tables (or pairs of tables) per lane block: `verify thm7 --samples 20000`
# peaked at 17.99 MB with one table at a time; blocks of 2^12 pairs raised
# that to 19.11 MB, 2^10 to 18.05 MB and 2^8 to 18.17 MB, in 0.30-0.35 s
# each (medians of 7 runs, 2 cores, Python 3.11)
_LANE_BLOCK = 1 << 10


def table_blocks(n: int):
    """all_tables(n) as the bytes of blocks of at most _LANE_BLOCK tables,
    laid end to end, one byte per entry."""
    tables = all_tables(n)
    while block := bytes(itertools.chain.from_iterable(
            itertools.islice(tables, _LANE_BLOCK))):
        yield block


def random_table(n: int, rng: random.Random) -> tuple[int, ...]:
    """The values of n calls ``rng.randrange(n)``, drawn as CPython's
    ``_randbelow_with_getrandbits`` draws them (k = n.bit_length() bits,
    redrawn while >= n) without randrange's argument handling.

    This per-table draw is the oracle of ``draw_tables`` in
    tests/test_extremal.py.
    """
    k = n.bit_length()
    getrandbits = rng.getrandbits
    table = []
    for _ in range(n):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        table.append(r)
    return tuple(table)


def draw_tables(n: int, count: int, rng: random.Random) -> bytes:
    """count tables of random_table(n, rng), end to end as bytes, leaving
    rng in the state those calls leave it, for 0 <= n <= 255.

    Each getrandbits(k) call of random_table takes the top k bits of one
    32-bit Mersenne Twister word, which is the top byte shifted right by
    8 - k.  getrandbits(32 w) returns the next w words, first word lowest,
    so its bytes 3, 7, ... are their top bytes in order; translate keeps
    each accepted value and drops the bytes whose value is >= n.  Every
    word yields at most one value, so drawing as many words as values are
    missing never draws past the words the per-value calls would draw.
    """
    if not 0 <= n <= 255:
        raise ValueError(f"byte tables take n <= 255 points, got {n}")
    shift = 8 - n.bit_length()
    keep = bytes(b >> shift for b in range(256))
    drop = bytes(b for b in range(256) if b >> shift >= n)
    out = bytearray()
    missing = count * n
    while missing:
        words = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")
        got = words[3::4].translate(keep, drop)
        out += got
        missing -= len(got)
    return bytes(out)


def _normalize_gamma(gamma) -> tuple[int, int]:
    """Return (a, m) with gamma = a / 2^m for dyadic gamma."""
    frac = Fraction(gamma)
    den = frac.denominator
    m = den.bit_length() - 1
    if 1 << m != den:
        raise ValueError(f"gamma must be dyadic (denominator a power of 2): {gamma}")
    return frac.numerator, m


def _collision_pair(table: tuple[int, ...], k: int) -> tuple[int, int]:
    """The collision counts (S(f), S(f^k)) of one table.

    S(f^k) is constant once k >= n - 1: f^(n-1) maps onto the cycle points,
    which f only permutes, so f^min(k, n) stands in for f^k, taken by
    repeated squaring in at most 2 log2(n) compositions.
    """
    return (collisions(table),
            collisions(iterate_table(table, min(k, len(table)))))


def _ratio_terms(n: int, s1: int, sk: int, a: int, m: int) -> tuple[int, int]:
    """Numerator and denominator of (deg(f^k)/deg(f)^(a/2^m))^(2^m), from
    the collision counts s1 = S(f) and sk = S(f^k) on n points."""
    p = 1 << m
    return sk ** p * n ** a, s1 ** a * n ** p


class RatioWitness:
    """Maximizer of deg(f^k)/deg(f)^gamma with the exact powered ratio."""

    __slots__ = ("map", "k", "gamma", "ratio_pow")

    def __init__(self, map: EndoMap, k: int, gamma: Fraction,
                 ratio_pow: Fraction):
        self.map = map
        self.k = k
        self.gamma = gamma  # dyadic, a/2^m
        self.ratio_pow = ratio_pow  # (deg(f^k)/deg(f)^gamma) ** 2^m

    def recompute(self) -> bool:
        pair = _collision_pair(self.map.table, self.k)
        terms = _ratio_terms(self.map.n, *pair, *_normalize_gamma(self.gamma))
        return Fraction(*terms) == self.ratio_pow

    def to_json(self) -> dict:
        ratio = self.ratio_pow
        return {
            "map": {"n": self.map.n, "table": list(self.map.table)},
            "k": self.k,
            "gamma": list(_normalize_gamma(self.gamma)),
            "ratio_pow": [ratio.numerator, ratio.denominator],
            "ratio_decimal": format(
                float(ratio) ** (1.0 / self.gamma.denominator), ".12g"),
        }


# the largest n the search scans: n = 7 (7^7 tables) takes 0.6 s and
# n = 8 (8^8 tables) 15 s, at k = 2 and gamma = 2 on 2 cores, Python 3.11
_SEARCH_HARD_LIMIT = 8


def exhaustive_ratio_search(n: int, k: int, gamma) -> RatioWitness:
    """Maximize deg(f^k)/deg(f)^gamma over all n^n endofunctions.

    The ratio depends on a table only through its collision counts
    (S(f), S(f^k)), so one pass over the lanes of table_blocks keeps the
    first index of each distinct pair, that of the lexicographically
    smallest table, and compares the pairs exactly through their 2^m-th
    powers.  Ties go to the smallest table.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n > _SEARCH_HARD_LIMIT:
        raise ValueError(f"{n}^{n} tables exceed the search limit "
                         f"n <= {_SEARCH_HARD_LIMIT}")
    a, m = _normalize_gamma(gamma)
    first: dict[tuple[int, int], int] = {}
    start = 0
    for block in table_blocks(n):
        lanes = len(block) // n
        cols = lane_columns(block, n, n)
        # f^min(k, n) stands in for f^k, as in _collision_pair
        pairs = zip(lane_collisions(cols, lanes),
                    lane_collisions(lane_iterate(cols, min(k, n), lanes), lanes))
        for index, pair in enumerate(pairs, start):
            first.setdefault(pair, index)
        start += lanes
    ratios = {pair: Fraction(*_ratio_terms(n, *pair, a, m)) for pair in first}
    best = max(ratios.values())
    index = min(first[pair] for pair, r in ratios.items() if r == best)
    table = next(itertools.islice(all_tables(n), index, None))
    return RatioWitness(EndoMap.from_table(table), k, Fraction(a, 1 << m), best)
