"""Products of the adjacent sorting operators t_i acting on S_n.

A word (i_1, ..., i_r) over 1..n-1 names the operator t_{i_r} ... t_{i_1}
(t_{i_1} is applied first).  The bubble pass is the word (1, 2, ..., n-1).
An operator is eventually constant (some iterate is the constant map at the
identity) exactly when its word uses every generator.

Two special words: T_alt applies the odd generators in increasing order and
then the even ones, T_tla the reverse.  Both have image size equal to the
number of up-down permutations, and for odd n they are intertwined by
reverse-complementation, hence share a fiber histogram.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial

from .endo import EndoMap, collisions, compose_tables
from .perms import Perm, _t, check_perm, permutation_domain


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


def hecke_endomap(word: HeckeWord) -> EndoMap:
    return EndoMap.from_function(permutation_domain(word.n),
                                 partial(_hecke_apply, word.gens))


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


def conjecture2_scan(n: int, max_word_length: int) -> ScanReport:
    """Scan eventually constant words, checking deg(bubble) <= deg(T) <= deg(T_tla).

    Words are visited in length-lexicographic order; operators are
    deduplicated by their full table before degrees are computed.  The
    bubble and T_tla words are always included.  Any operator whose degree
    falls outside the conjectured interval is recorded in ``violations``.
    """
    if n < 2:
        raise ValueError("scan needs n >= 2")
    dom = permutation_domain(n)
    generators = {i: tuple(dom.rank(_t(pi, i)) for pi in dom.objects())
                  for i in range(1, n)}

    def table_of(gens) -> tuple[int, ...]:
        # t_{i_1} acts first, so each later generator is composed after it
        out = generators[gens[0]]
        for i in gens[1:]:
            out = compose_tables(generators[i], out)
        return out

    def table_degree(table) -> Fraction:
        return Fraction(collisions(table), len(table))

    lo = table_degree(table_of(bubble_word(n).gens))
    hi = table_degree(table_of(t_tla_word(n).gens))
    report = ScanReport(bubble_degree=lo, tla_degree=hi)

    def words():
        yield bubble_word(n).gens
        yield t_tla_word(n).gens
        for length in range(1, max_word_length + 1):
            yield from itertools.product(range(1, n), repeat=length)

    seen: set[tuple[int, ...]] = set()
    for gens in words():
        if not set(gens) >= set(range(1, n)):
            continue
        table = table_of(gens)
        if table in seen:
            continue
        seen.add(table)
        d = table_degree(table)
        if not lo <= d <= hi:
            report.violations.append({"word": gens, "degree": d})
    report.distinct_operators = len(seen)
    return report
