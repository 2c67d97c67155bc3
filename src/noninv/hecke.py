"""Products of the adjacent sorting operators t_i acting on S_n.

A word (i_1, ..., i_r) over 1..n-1 names the operator t_{i_r} ... t_{i_1}
(t_{i_1} is applied first).  The bubble pass is the word (1, 2, ..., n-1).
An operator is eventually constant (some iterate is the constant map at the
identity) exactly when its word uses every generator.

Two special words: T_alt applies the odd generators in increasing order and
then the even ones, T_tla the reverse.  Both have image size equal to the
number of up-down permutations, and for odd n they are intertwined by
reverse-complementation, hence share a fiber histogram.

The t_i satisfy the 0-Hecke relations (t_i t_i = t_i and the braid
relations), so an operator depends only on its word's Demazure product,
and a reduced word of that product has at most n(n-1)/2 letters.
``hecke_rank_table`` builds the operator's table in lex rank order, the
order of the S_n codec, from ranks alone: each letter's generator table
comes from ``perms.generator_rank_table``, and the word's table is their
chain of ``compose_tables`` calls, so no permutation is materialized.  The
degree-range scan extends each product's table by one generator table in
the same way.  ``hecke_endomap`` tabulates the same reduced word point by
point over the codec, so its table is the rank table entry for entry; it
is the object-map oracle of the rank tables, with ``hecke_apply`` behind
it.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import partial
from math import factorial

from .endo import EndoMap, FiberHistogram, compose_tables
from .perms import (Perm, _check_ceiling, _t, check_perm,
                    generator_rank_table, permutation_domain)


class HeckeWord:
    """A composition of sorting operators on S_n, applied left to right."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: tuple[int, ...]):
        if n < 1:
            raise ValueError("n must be positive")
        for i in gens:
            if not 1 <= i <= n - 1:
                raise ValueError(f"generator t_{i} undefined for S_{n}")
        self.n = n
        self.gens = gens


def hecke_apply(word: HeckeWord, pi: Perm) -> Perm:
    pi = check_perm(pi)
    if len(pi) != word.n:
        raise ValueError(f"length {len(pi)} permutation under an S_{word.n} word")
    return _hecke_apply(word.gens, pi)


def _hecke_apply(gens: tuple[int, ...], pi: Perm) -> Perm:
    # generators of a HeckeWord lie in 1..n-1 for its S_n
    for i in gens:
        pi = _t(pi, i)
    return pi


def demazure(word: HeckeWord) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The letters of word that lengthen its product w, and w; a dropped
    letter is absorbed by t_i t_i = t_i, so the kept letters act as word."""
    w, kept = list(range(1, word.n + 1)), []
    for i in word.gens:
        if w[i - 1] < w[i]:
            w[i - 1], w[i] = w[i], w[i - 1]
            kept.append(i)
    return tuple(kept), tuple(w)


def hecke_endomap(word: HeckeWord) -> EndoMap:
    return EndoMap.from_function(permutation_domain(word.n),
                                 partial(_hecke_apply, demazure(word)[0]))


def hecke_rank_table(word: HeckeWord) -> array:
    """The index table of word's operator over S_n, in lex rank order.

    The generator tables of the reduced word's letters are composed in
    turn, the first letter's table first; the empty word gives the
    identity.  As a tuple it is ``hecke_endomap(word).table``.
    """
    kept = demazure(word)[0]
    if not kept:
        _check_ceiling(word.n)
        return array("I", range(factorial(word.n)))
    table = generator_rank_table(word.n, kept[0])
    for i in kept[1:]:
        table = compose_tables(generator_rank_table(word.n, i), table)
    return table


def bubble_word(n: int) -> HeckeWord:
    return HeckeWord(n, tuple(range(1, n)))


def t_alt_word(n: int) -> HeckeWord:
    """Odd generators in increasing order, then even ones."""
    return HeckeWord(n, tuple(range(1, n, 2)) + tuple(range(2, n, 2)))


def t_tla_word(n: int) -> HeckeWord:
    """Even generators in increasing order, then odd ones."""
    return HeckeWord(n, tuple(range(2, n, 2)) + tuple(range(1, n, 2)))


def is_eventually_constant(word: HeckeWord) -> bool:
    """Some iterate of the operator is constant iff every generator appears."""
    return set(word.gens) >= set(range(1, word.n))


def updown_count(n: int) -> int:
    """Number of up-down (alternating) permutations of length n.

    Computed by the boustrophedon (Entringer) recurrence; the sequence runs
    1, 1, 1, 2, 5, 16, 61, 272, ...
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = [1]
    for m in range(1, n + 1):
        prev = row
        row = [0]
        for k in range(1, m + 1):
            row.append(row[k - 1] + prev[m - k])
    return row[-1]


class ScanReport:
    """Outcome of an exhaustive or sampled scan over operator words."""

    __slots__ = ("distinct_operators", "violations", "bubble_degree",
                 "tla_degree")

    def __init__(self, bubble_degree: Fraction, tla_degree: Fraction):
        self.distinct_operators = 0
        self.violations: list = []
        self.bubble_degree = bubble_degree
        self.tla_degree = tla_degree


# the largest S_n the scan walks: the whole monoid at n = 7, two levels of
# 5040-entry tables at a time, takes 2.5-2.7 s and peaks at 42 MB (10^6
# bytes, 2 cores, Python 3.11); at n = 8 whole levels of 40320-entry
# tables would take hundreds of MB
_SCAN_HARD_LIMIT = 7


def conjecture2_scan(n: int, max_word_length: int) -> ScanReport:
    """Scan eventually constant operators, checking deg(bubble) <= deg(T) <= deg(T_tla).

    Level L + 1 of a walk from the identity extends level L's least reduced
    words, in order, by each lengthening letter i, and the product's table
    by t_i's generator table, so each product is tabulated once, from its
    parent; a full-support product outside the interval goes to
    ``violations``.  Only the level being extended and the one it builds
    are held.
    """
    if n < 2:
        raise ValueError("scan needs n >= 2")
    if n > _SCAN_HARD_LIMIT:
        raise ValueError(f"scan of S_{n} exceeds the limit n <= "
                         f"{_SCAN_HARD_LIMIT}")
    ends = (bubble_word(n), t_tla_word(n))
    lo, hi = (FiberHistogram.from_table(hecke_rank_table(word)).degree()
              for word in ends)
    report = ScanReport(bubble_degree=lo, tla_degree=hi)
    seen = {demazure(word)[1] for word in ends}
    gens = [generator_rank_table(n, i) for i in range(1, n)]
    # product -> (word, table)
    level = {tuple(range(1, n + 1)):
             (HeckeWord(n, ()), array("I", range(factorial(n))))}
    for _ in range(min(max_word_length, n * (n - 1) // 2)):
        below, level = level, {}
        for w, (parent, table) in below.items():
            for i in range(1, n):
                v = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
                if w[i - 1] > w[i] or v in level:
                    continue
                word = HeckeWord(n, parent.gens + (i,))
                product = compose_tables(gens[i - 1], table)
                level[v] = word, product
                if v in seen or not is_eventually_constant(word):
                    continue
                seen.add(v)
                d = FiberHistogram.from_table(product).degree()
                if not lo <= d <= hi:
                    report.violations.append({"word": word.gens, "degree": d})
    report.distinct_operators = len(seen)
    return report
