"""Stack sorting on permutations and the growth of its degree.

One pass of stack sorting pushes entries onto a stack and pops whenever the
incoming entry is larger than the top.  Equivalently, writing pi = L m R
with m the largest entry, the map acts recursively as

    s(pi) = s(L) s(R) m.

Applying the pass n - 1 times sorts every permutation of length n.

The degree d_n of s on S_n comes from exhaustive enumeration.  Every fiber
has size at most the Catalan number C_n, so d_n <= C_n, and the degrees
satisfy d_{m-1} d_{n-1} <= (m+n-1) d_{m+n-1}, which turns exact small-n
values into lower bounds on the growth rate of d_n^{1/n}.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

from .endo import square_sum
from .perms import _PERM_HARD_LIMIT, Perm, check_perm


def stack_sort(seq) -> tuple:
    """Run one stack-sorting pass over a sequence of distinct entries.

    >>> stack_sort((4, 1, 6, 3, 5, 2))
    (1, 4, 3, 2, 5, 6)
    >>> stack_sort(())
    ()
    """
    out: list = []
    stack: list = []
    for x in seq:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def _stack_rec(seq: tuple) -> tuple:
    if not seq:
        return ()
    m = seq.index(max(seq))
    return _stack_rec(seq[:m]) + _stack_rec(seq[m + 1:]) + (seq[m],)


def stack_sort_recursive(pi: Perm) -> Perm:
    """Reference implementation via the recursion s(L m R) = s(L) s(R) m."""
    return _stack_rec(check_perm(pi))


def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def stack_fibers(n: int) -> Counter:
    """Fiber sizes of stack sorting on S_n, keyed by image permutation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _PERM_HARD_LIMIT:
        raise ValueError(
            f"S_{n} exceeds the enumeration limit n <= {_PERM_HARD_LIMIT}")
    return Counter(map(stack_sort, permutations(range(1, n + 1))))


def stack_degree(n: int) -> Fraction:
    """Exact degree d_n of stack sorting on S_n, by full enumeration."""
    counts = stack_fibers(n)
    return Fraction(square_sum(counts.values()), math.factorial(n))


def superadditivity_failures(known: dict[int, Fraction]) -> list[tuple[int, int]]:
    """Pairs (m, n) with d_{m-1} d_{n-1} > (m+n-1) d_{m+n-1}."""
    out = []
    for m in known:
        for n in known:
            k = m + n - 1
            if m - 1 in known and n - 1 in known and k in known:
                if known[m - 1] * known[n - 1] > k * known[k]:
                    out.append((m, n))
    return out


_A10_TARGET = Fraction(112462, 100000)


def a10_lower_bound_ok(d9: Fraction) -> bool:
    """Exact check that a_10 = d_9/100 satisfies a_10^(1/10) >= 1.12462.

    Both sides are raised to the tenth power and compared as rationals, so
    no floating-point rounding enters the verdict.
    """
    return Fraction(d9, 100) >= _A10_TARGET ** 10
