"""Permutations of {1..n} in one-line notation, stored as tuples.

S_n is ranked in lex order, the order of ``itertools.permutations``: the
Lehmer code c = (c_0, ..., c_(n-1)), where c_j counts entries smaller than
pi_j to its right, is a mixed-radix numeral with c_j in 0..n-1-j and
weight (n-1-j)!.  The codec enumerates S_n in that order, and a sorting
operator t_i acts on two adjacent digits of the numeral, so its table is
built from ranks alone, in the same order.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import permutations
from math import factorial

from .endo import EnumeratedDomain, _copies

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


# the largest S_n the codec enumerates: `verify thm1 --max-n 10`
# takes 9.2-12.3 s and peaks at 956 MB (10^6 bytes, peak RSS by
# os.wait4) on 2 cores, Python 3.11; the generator tables stop there
# too, at 14.5 MB each
_PERM_HARD_LIMIT = 10


def _check_ceiling(n: int) -> None:
    """Refuse an S_n above _PERM_HARD_LIMIT before anything is enumerated."""
    if n > _PERM_HARD_LIMIT:
        raise ValueError(
            f"S_{n} exceeds the enumeration limit n <= {_PERM_HARD_LIMIT}")


def generator_rank_table(n: int, i: int) -> array:
    """The index table of t_i over S_n, 1 <= i < n, in lex rank order:
    entry r is the lex rank of t_i applied to the permutation of rank r.

    With j = i - 1, positions j, j + 1 descend exactly when c_j > c_(j+1);
    the swap sets c_j' = c_(j+1) and c_(j+1)' = c_j - 1 and keeps every
    other digit.  Over the m = n - j digits from c_j on, the ranks with
    c_j = a and c_(j+1) = b fill one run of (m-2)! consecutive ranks, which
    t_i moves to the run of (b, a - 1) when a > b and fixes otherwise.  The
    digits before c_j are kept, so each of them, radix r, adds r copies of
    the table so far, copy d shifted by d * (r-1)!.
    """
    if not 1 <= i < n:
        raise ValueError(f"generator t_{i} undefined for S_{n}")
    _check_ceiling(n)
    m = n - i + 1
    run, high = factorial(m - 2), factorial(m - 1)
    table = array("I")
    for a in range(m):
        for b in range(m - 1):
            lo = (b * high + (a - 1) * run if a > b
                  else a * high + b * run)
            table.extend(range(lo, lo + run))
    for radix in range(m + 1, n + 1):
        size = len(table)
        table = _copies(table, ((size, d * size) for d in range(radix)))
    return table


class PermutationDomain(EnumeratedDomain):
    """S_n in lex rank order."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        _check_ceiling(n)
        self.n = n
        super().__init__(list(permutations(range(1, n + 1))))

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
