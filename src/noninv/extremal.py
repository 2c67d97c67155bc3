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
[n] for dyadic gamma = a/2^m; ratios are compared by their 2^m-th powers so
every comparison stays in integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .endo import (EndoMap, collisions, compose, degree, iterate,
                   iterate_table)

# ---------------------------------------------------------------------------
# the extremal tree family


@dataclass(frozen=True)
class TreeSpec:
    """A rooted tree where every depth-t vertex has branching[t] children."""

    branching: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m < 1 for m in self.branching):
            raise ValueError("branching factors must be >= 1")

    @property
    def level_sizes(self) -> tuple[int, ...]:
        sizes = [1]
        for m in self.branching:
            sizes.append(sizes[-1] * m)
        return tuple(sizes)

    @property
    def size(self) -> int:
        return sum(self.level_sizes)


def tree_branching(b: int, k: int) -> tuple[int, ...]:
    """The factors b_0, ..., b_k: iterated floor square roots, last repeated."""
    if b < 2 or k < 2:
        raise ValueError("need b >= 2 and k >= 2")
    factors = [b]
    for _ in range(k - 1):
        factors.append(isqrt(factors[-1]))
    factors.append(factors[-1])
    return tuple(factors)


def tree_spec(b: int, k: int) -> TreeSpec:
    bs = tree_branching(b, k)
    # k branching levels, then a path of length b_k below each depth-k vertex
    return TreeSpec(bs[:k] + (1,) * bs[k])


def tree_size(b: int, k: int) -> int:
    return tree_spec(b, k).size


def build_tree_map(b: int, k: int) -> EndoMap:
    """Parent map of T_b with vertices in depth-lexicographic order."""
    spec = tree_spec(b, k)
    sizes = spec.level_sizes
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    table = [0] * spec.size
    for t in range(1, len(sizes)):
        width = spec.branching[t - 1]
        for j in range(sizes[t]):
            table[offsets[t] + j] = offsets[t - 1] + j // width
    return EndoMap.from_table(table)


def stratified_degree(spec: TreeSpec, r: int = 1) -> Fraction:
    """Degree of the r-th iterate of the parent map, from depth strata alone.

    The root's fiber consists of every vertex within distance r of the root
    (the root is a fixed point); a depth-t vertex's fiber is its set of
    depth-(t+r) descendants, empty once t + r exceeds the tree depth.
    """
    if r < 1:
        raise ValueError("iterate order must be >= 1")
    sizes = spec.level_sizes
    depth = len(spec.branching)
    root_fiber = sum(sizes[t] for t in range(min(r, depth) + 1))
    total = root_fiber * root_fiber
    for t in range(1, depth - r + 1):
        fiber = math.prod(spec.branching[t:t + r])
        total += sizes[t] * fiber * fiber
    return Fraction(total, spec.size)


def prop1_degrees(b: int, k: int) -> tuple[tuple[Fraction, Fraction],
                                             tuple[Fraction, Fraction]]:
    """deg(F_b) and deg(F_b^k) two ways: (engine, closed form).

    The engine pair is the generic fiber count over the explicit map, the
    closed pair the depth-stratified formula.
    """
    f = build_tree_map(b, k)
    engine = (degree(f), degree(iterate(f, k)))
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
    (engine_f, engine_fk), (closed_f, closed_fk) = prop1_degrees(b, k)
    if (engine_f, engine_fk) != (closed_f, closed_fk):
        raise RuntimeError(
            f"stratified degrees {closed_f}, {closed_fk} disagree with "
            f"engine {engine_f}, {engine_fk} at b={b}, k={k}")
    return closed_f, closed_fk


def padded_family_map(n: int, k: int) -> EndoMap:
    """F_b for the largest b with n_b <= n, padded with fixed points."""
    if tree_size(2, k) > n:
        raise ValueError(f"no tree with k={k} fits inside n={n} points")
    b = 2
    while tree_size(b + 1, k) <= n:
        b += 1
    tree = build_tree_map(b, k)
    table = tuple(tree.table) + tuple(range(tree.n, n))
    return EndoMap.from_table(table)


# ---------------------------------------------------------------------------
# exact inequality checks


# With S(f) = n deg(f) the collision count, n cancels from both inequalities,
# so each is compared exactly on integers:
#     deg(f o g)^2 <= n deg(f) deg(g)^2          <=>  S(f o g)^2 <= S(f) S(g)^2
#     deg(f^k)^p <= deg(f)^(2p - 1) n^(p - 1)    <=>  S(f^k)^p <= S(f)^(2p - 1)
# with p = 2^(k-1).


def check_theorem7(f: EndoMap, g: EndoMap) -> tuple[bool, bool]:
    """Exact check of deg(f o g)^2 <= n deg(f) deg(g)^2, plus equality flag."""
    if f.n == 0:
        raise ValueError("degree is undefined on the empty domain")
    sg = collisions(g.table)
    lhs = collisions(compose(f, g).table) ** 2
    rhs = collisions(f.table) * sg * sg
    return lhs <= rhs, lhs == rhs


def check_theorem3_bound(f: EndoMap, k: int) -> bool:
    """Exact check of deg(f^k)^(2^(k-1)) <= deg(f)^(2^k - 1) n^(2^(k-1) - 1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if f.n == 0:
        raise ValueError("degree is undefined on the empty domain")
    p = 1 << (k - 1)
    return (collisions(iterate_table(f.table, k)) ** p
            <= collisions(f.table) ** (2 * p - 1))


# ---------------------------------------------------------------------------
# exhaustive and randomized endofunction scans


def all_tables(n: int):
    """Every endofunction table on n points, lexicographically."""
    return itertools.product(range(n), repeat=n)


def random_table(n: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(n))


def random_endomap(n: int, rng_seed: int) -> EndoMap:
    return EndoMap.from_table(random_table(n, random.Random(rng_seed)))


def canonical_table(table: tuple[int, ...]) -> tuple[int, ...]:
    """Lexicographically smallest relabeling-conjugate of a table."""
    n = len(table)
    best = None
    for sigma in itertools.permutations(range(n)):
        cand = [0] * n
        for i in range(n):
            cand[sigma[i]] = sigma[table[i]]
        cand = tuple(cand)
        if best is None or cand < best:
            best = cand
    return best


def _normalize_gamma(gamma) -> tuple[int, int]:
    """Return (a, m) with gamma = a / 2^m for dyadic gamma."""
    if isinstance(gamma, tuple):
        a, den = gamma
        frac = Fraction(a, den)
    else:
        frac = Fraction(gamma)
    den = frac.denominator
    m = den.bit_length() - 1
    if 1 << m != den:
        raise ValueError(f"gamma must be dyadic (denominator a power of 2): {gamma}")
    return frac.numerator, m


def _ratio_terms(table: tuple[int, ...], k: int, a: int,
                 m: int) -> tuple[int, int]:
    """Numerator and denominator of (deg(f^k)/deg(f)^(a/2^m))^(2^m)."""
    n = len(table)
    s1 = collisions(table)
    sk = collisions(iterate_table(table, k))
    p = 1 << m
    return sk ** p * n ** a, s1 ** a * n ** p


def _search_chunk(args) -> tuple[int, int, tuple[int, ...]]:
    n, k, a, m, first, canonical = args
    best_num, best_den, best_table = 0, 1, None
    for rest in itertools.product(range(n), repeat=n - 1):
        table = (first,) + rest
        if canonical and canonical_table(table) != table:
            continue
        num, den = _ratio_terms(table, k, a, m)
        diff = num * best_den - best_num * den
        if diff > 0 or (diff == 0 and (best_table is None or table < best_table)):
            best_num, best_den, best_table = num, den, table
    return best_num, best_den, best_table


@dataclass
class RatioWitness:
    """Maximizer of deg(f^k)/deg(f)^gamma with the exact powered ratio."""

    map: EndoMap
    k: int
    gamma_num: int
    gamma_log2_den: int
    ratio_num: int
    ratio_den: int

    @property
    def gamma(self) -> Fraction:
        return Fraction(self.gamma_num, 1 << self.gamma_log2_den)

    @property
    def ratio_pow(self) -> Fraction:
        """(deg(f^k)/deg(f)^gamma) ** 2^m as an exact rational."""
        return Fraction(self.ratio_num, self.ratio_den)

    @property
    def ratio_decimal(self) -> float:
        return float(self.ratio_pow) ** (1.0 / (1 << self.gamma_log2_den))

    def recompute(self) -> bool:
        num, den = _ratio_terms(self.map.table, self.k, self.gamma_num,
                                self.gamma_log2_den)
        return Fraction(num, den) == self.ratio_pow

    def to_json(self) -> dict:
        return {
            "map": {"n": self.map.n, "table": list(self.map.table)},
            "k": self.k,
            "gamma": [self.gamma_num, self.gamma_log2_den],
            "ratio_pow": [self.ratio_num, self.ratio_den],
            "ratio_decimal": format(self.ratio_decimal, ".12g"),
        }


_SEARCH_BUDGET = 7


def exhaustive_ratio_search(n: int, k: int, gamma, budget: int = _SEARCH_BUDGET,
                            canonical: bool = False,
                            workers: int = 1) -> RatioWitness:
    """Maximize deg(f^k)/deg(f)^gamma over all n^n endofunctions.

    Ratios are compared exactly through their 2^m-th powers.  Ties go to the
    lexicographically smallest table, so the result is schedule-independent.
    ``canonical`` restricts the scan to lexicographically minimal
    relabeling-representatives (same maximum, fewer degree evaluations).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n > budget:
        raise ValueError(
            f"n = {n} exceeds the search budget {budget}; "
            f"pass budget={n} explicitly to scan {n}^{n} tables")
    a, m = _normalize_gamma(gamma)
    jobs = [(n, k, a, m, first, canonical) for first in range(n)]
    if workers > 1 and n > 2:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_search_chunk, jobs))
    else:
        results = [_search_chunk(j) for j in jobs]
    best_num, best_den, best_table = 0, 1, None
    for num, den, table in results:
        if table is None:
            continue
        diff = num * best_den - best_num * den
        if diff > 0 or (diff == 0 and (best_table is None or table < best_table)):
            best_num, best_den, best_table = num, den, table
    frac = Fraction(best_num, best_den)
    return RatioWitness(EndoMap.from_table(best_table), k, a, m,
                        frac.numerator, frac.denominator)


def ratio_bound_report(n_list, k: int, gamma=None,
                       budget: int = _SEARCH_BUDGET) -> list[dict]:
    """Max (or tree-family) iterate ratios, normalized by n^(1 - 1/2^(k-1)).

    Small n get the exhaustive maximum; larger n get the padded tree-family
    value.  The normalized value is <= 1 exactly when the powered
    iterate-versus-base inequality holds, which is also checked and
    reported.  The open question asks where the normalized values settle in
    [3^(-3/2), 1]; band membership is reported, not asserted.
    """
    if gamma is None:
        gamma = Fraction((1 << k) - 1, 1 << (k - 1))  # 2 - 1/2^(k-1)
    a, m = _normalize_gamma(gamma)
    band_low = 3 ** -1.5
    rows = []
    for n in n_list:
        if n <= budget:
            witness = exhaustive_ratio_search(n, k, (a, 1 << m), budget=budget)
            method = "exhaustive"
            f = witness.map
            ratio_pow = witness.ratio_pow
        else:
            f = padded_family_map(n, k)
            method = "tree-family"
            num, den = _ratio_terms(f.table, k, a, m)
            ratio_pow = Fraction(num, den)
        ratio = float(ratio_pow) ** (1.0 / (1 << m))
        normalized = ratio / n ** (1 - 1 / (1 << (k - 1)))
        rows.append({
            "n": n,
            "method": method,
            "ratio_decimal": ratio,
            "normalized": normalized,
            "bound_holds": check_theorem3_bound(f, k),
            "in_band": band_low <= normalized <= 1 + 1e-12,
        })
    return rows
