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

The enumeration applies the recursion to whole levels instead of running
the stack on each permutation.  A permutation of 1..m with m at position
a + 1 is L m R, where L is a permutation of 1..a relabelled onto an
a-subset S of {1..m-1} and R a permutation of 1..m-1-a relabelled onto the
complement of S.  Stack sorting only compares entries, so it commutes with
order-preserving relabelling: the images of S_m are the images of S_a
relabelled onto S, followed by those of S_{m-1-a} relabelled onto the
complement, followed by m, over every a and S.  Images are kept as
``bytes``, where a relabelling is one ``bytes.translate`` and every
concatenation runs in C.  Level m lists all m! images, one per
permutation, up to m = n - 2.  Level n - 1 is read only where L or R is
empty, as s(sigma) n, so it is counted rather than listed, and level n
is counted as it is produced.  This is
still brute force: each of the n! images is built and counted one by one,
and no fiber size comes from a formula, so the count stays an independent
check on any closed form for d_n.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product, repeat, starmap
from operator import add

from .endo import square_sum
from .perms import _check_ceiling


def catalan(n: int) -> int:
    """The n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def _stack_images(levels: list[list[bytes]], m: int):
    """s(pi) as bytes for every pi in S_m, given the images of S_0..S_{m-1}.

    levels[j] lists s(sigma) for every sigma in S_j.  pi = L m R with
    |L| = a has s(pi) = s(L) s(R) m, where L's entries are an a-subset of
    {1..m-1} and R's the complement.  When a = 0 or a = m - 1, L or R is
    empty and the other keeps its own values, so those images are
    s(sigma) m for sigma in S_{m-1}: one block when m = 1, two after.
    """
    top = bytes((m,))
    ends = [map(add, levels[m - 1], repeat(top)) for _ in range(min(m, 2))]
    return chain(*ends, _middle_images(levels, m))


def _middle_images(levels: list[list[bytes]], m: int):
    """The images of the pi = L m R in S_m with L and R both nonempty.

    Only levels[1..m-2] are read.
    """
    top = bytes((m,))
    rest = range(1, m)

    def blocks():
        for a in range(1, m - 1):
            left, right = levels[a], levels[m - 1 - a]
            low, high = bytes(range(1, a + 1)), bytes(range(1, m - a))
            for values in combinations(rest, a):
                on_left = bytes.maketrans(low, bytes(values))
                on_right = bytes.maketrans(
                    high, bytes(v for v in rest if v not in values))
                yield starmap(add, product(
                    [u.translate(on_left) for u in left],
                    [v.translate(on_right) + top for v in right]))

    return chain.from_iterable(blocks())


def stack_fibers(n: int) -> Counter:
    """Fiber sizes of stack sorting on S_n, keyed by image permutation as
    ``bytes``, one byte per entry."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_ceiling(n)
    levels = [[b""]]
    for m in range(1, n - 1):
        levels.append(list(_stack_images(levels, m)))
    # level n - 1 only feeds the images s(sigma) n, so it is counted, not
    # listed: its (n-1)! images shrink to their distinct values
    below = Counter(_stack_images(levels, n - 1) if n > 1 else levels[0])
    top = bytes((n,))
    counts = Counter({image + top: min(n, 2) * c
                      for image, c in below.items()})
    counts.update(_middle_images(levels, n))
    return counts


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
