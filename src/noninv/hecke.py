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
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .endo import EndoMap, collisions, compose_tables
from .perms import Perm, _t, check_perm, permutation_domain


@dataclass(frozen=True)
class HeckeWord:
    """A composition of sorting operators on S_n, applied left to right."""

    n: int
    gens: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        for i in self.gens:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"generator t_{i} undefined for S_{self.n}")


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


@dataclass
class ScanReport:
    """Outcome of an exhaustive or sampled scan over operator words."""

    n: int
    max_word_length: int
    words_scanned: int = 0
    eventually_constant_words: int = 0
    distinct_operators: int = 0
    violations: list = field(default_factory=list)
    min_degree: Fraction | None = None
    max_degree: Fraction | None = None
    min_witness: tuple[int, ...] | None = None
    max_witness: tuple[int, ...] | None = None
    bubble_degree: Fraction | None = None
    tla_degree: Fraction | None = None
    # whether some scanned operator realizes each conjectured endpoint
    lower_attained: bool = False
    upper_attained: bool = False


def conjecture2_scan(n: int, max_word_length: int, samples: int | None = None, seed: int = 0) -> ScanReport:
    """Scan eventually constant words, checking deg(bubble) <= deg(T) <= deg(T_tla).

    Words are visited in length-lexicographic order (or sampled uniformly per
    length when ``samples`` is given); operators are deduplicated by their
    full table before degrees are computed.  The bubble and T_tla words are
    always included.  Any operator whose degree falls outside the conjectured
    interval is recorded in ``violations``.
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

    report = ScanReport(n=n, max_word_length=max_word_length)
    lo = table_degree(table_of(bubble_word(n).gens))
    hi = table_degree(table_of(t_tla_word(n).gens))
    report.bubble_degree, report.tla_degree = lo, hi

    def words():
        yield bubble_word(n).gens
        yield t_tla_word(n).gens
        alphabet = range(1, n)
        rng = random.Random(seed)
        for length in range(1, max_word_length + 1):
            if samples is None:
                yield from itertools.product(alphabet, repeat=length)
            else:
                for _ in range(samples):
                    yield tuple(rng.choice(alphabet) for _ in range(length))

    seen: set[tuple[int, ...]] = set()
    for gens in words():
        report.words_scanned += 1
        if not set(gens) >= set(range(1, n)):
            continue
        report.eventually_constant_words += 1
        table = table_of(gens)
        if table in seen:
            continue
        seen.add(table)
        d = table_degree(table)
        if report.min_degree is None or d < report.min_degree:
            report.min_degree, report.min_witness = d, gens
        if report.max_degree is None or d > report.max_degree:
            report.max_degree, report.max_witness = d, gens
        if d == lo:
            report.lower_attained = True
        if d == hi:
            report.upper_attained = True
        if not lo <= d <= hi:
            report.violations.append({"word": gens, "degree": d})
    report.distinct_operators = len(seen)
    return report
