"""Permutations of {1..n} in one-line notation, stored as tuples.

Ranking and unranking go through the inversion table e = (e_1, ..., e_n),
where e_j counts entries larger than j that sit to the left of j; entry e_j
ranges over 0..n-j, so e is a mixed-radix numeral for a rank in 0..n!-1.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .endo import EnumeratedDomain

Perm = tuple[int, ...]


def is_perm(seq) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_perm(pi) -> Perm:
    pi = tuple(pi)
    if not is_perm(pi):
        raise ValueError(f"not a permutation of 1..{len(pi)}: {pi!r}")
    return pi


def _t(pi: Perm, i: int) -> Perm:
    # sorting operator t_i: swap positions i, i+1 (1-based) if descending;
    # callers pass only i in 1..len(pi)-1
    if pi[i - 1] > pi[i]:
        return pi[: i - 1] + (pi[i], pi[i - 1]) + pi[i + 1 :]
    return pi


def inversion_table(pi: Perm) -> tuple[int, ...]:
    n = len(pi)
    pos = [0] * (n + 1)
    for p, v in enumerate(pi):
        pos[v] = p
    return tuple(sum(1 for p in range(pos[j]) if pi[p] > j) for j in range(1, n + 1))


def from_inversion_table(e) -> Perm:
    # insert values n, n-1, ..., 1; inserting j at slot e_j leaves exactly
    # e_j larger values to its left, and later (smaller) insertions keep that
    n = len(e)
    out: list[int] = []
    for j in range(n, 0, -1):
        out.insert(e[j - 1], j)
    return tuple(out)


def lmax(pi: Perm) -> int:
    """Number of left-to-right maxima (equivalently, zeros of the inversion table)."""
    count, best = 0, 0
    for v in pi:
        if v > best:
            count, best = count + 1, v
    return count


def tail_length(pi: Perm) -> int:
    """Length of the longest suffix fixed pointwise: max t with pi_i = i for i > n-t."""
    n = len(pi)
    t = 0
    for i in range(n, 0, -1):
        if pi[i - 1] != i:
            break
        t += 1
    return t


def reverse_complement(pi: Perm) -> Perm:
    n = len(pi)
    return tuple(n + 1 - pi[n - j] for j in range(1, n + 1))


def perm_rank(pi: Perm) -> int:
    """Rank from the inversion table: with perm_unrank, the oracle of
    test_rank_unrank_round_trip, test_rank_round_trip_property and
    test_domain_agrees_with_arithmetic_rank."""
    n = len(pi)
    e = inversion_table(pi)
    r = 0
    for j in range(1, n + 1):
        r += e[j - 1] * factorial(n - j)
    return r


def perm_unrank(r: int, n: int) -> Perm:
    """Inverse of perm_rank: with it, the oracle of
    test_rank_unrank_round_trip, test_rank_round_trip_property and
    test_domain_agrees_with_arithmetic_rank."""
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for S_{n}")
    e = []
    for j in range(1, n + 1):
        w = factorial(n - j)
        e.append(r // w)
        r %= w
    return from_inversion_table(e)


# the largest S_n the codec enumerates: `verify thm1 --max-n 10`
# takes 11-13 s and peaks at 916 MB on 2 cores, Python 3.11
_PERM_HARD_LIMIT = 10


def _check_ceiling(n: int) -> None:
    """Refuse an S_n above _PERM_HARD_LIMIT before anything is enumerated."""
    if n > _PERM_HARD_LIMIT:
        raise ValueError(
            f"S_{n} exceeds the enumeration limit n <= {_PERM_HARD_LIMIT}")


def _rank_order(n: int) -> list[Perm]:
    """S_n in inversion-table rank order.

    from_inversion_table for every e at once: inserting v at slot e_v into
    each tuple of the previous level, slot-major, keeps the inversion
    tables in lex order, which is rank order.
    """
    objs: list[Perm] = [()]
    for v in range(n, 0, -1):
        objs = [t[:s] + (v,) + t[s:] for s in range(n - v + 1) for t in objs]
    return objs


class PermutationDomain(EnumeratedDomain):
    """S_n in inversion-table rank order."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        _check_ceiling(n)
        self.n = n
        super().__init__(_rank_order(n))

    def _key(self) -> int:
        return self.n  # S_0 and S_1 both have one element

    def _check(self, obj) -> Perm:
        pi = check_perm(obj)
        if len(pi) != self.n:
            raise ValueError(f"length {len(pi)} permutation in S_{self.n} domain")
        return pi


@lru_cache(maxsize=1)
def permutation_domain(n: int) -> PermutationDomain:
    """The S_n codec, shared by the maps of one command.

    Only the latest domain is kept, so a sweep over n holds one S_n at a
    time.  Maps tabulated over separately built codecs still compose,
    since equal codecs compare equal by class and n.
    """
    return PermutationDomain(n)
