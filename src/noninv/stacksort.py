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
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .endo import EndoMap, square_sum
from .perms import _PERM_HARD_LIMIT, Perm, check_perm, permutation_domain


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


def stack_endomap(n: int) -> EndoMap:
    """Stack sorting as an endomap of S_n."""
    return EndoMap.from_function(permutation_domain(n), stack_sort)


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


@dataclass
class StackDegreeTable:
    """Exact degrees d_n of stack sorting, indexed by n.

    Construction rejects any entry outside the provable window
    1 <= d_n <= C_n.
    """

    degrees: dict[int, Fraction]

    def __post_init__(self) -> None:
        for n, d in self.degrees.items():
            if not 1 <= d <= catalan(n):
                raise ValueError(f"d_{n} = {d} violates 1 <= d_n <= C_n")

    @classmethod
    def compute(cls, max_n: int) -> "StackDegreeTable":
        return cls({n: stack_degree(n) for n in range(1, max_n + 1)})

    def __getitem__(self, n: int) -> Fraction:
        return self.degrees[n]

    def superadditivity_failures(self) -> list[tuple[int, int]]:
        return superadditivity_failures(self.degrees)


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


@dataclass
class GrowthReport:
    rows: list[dict]
    superadditivity_failures: list[tuple[int, int]]
    roots_below_4: bool
    a10_ok: bool | None


def stack_growth_diagnostics(max_n: int) -> GrowthReport:
    """Tabulate degree growth for stack sorting up to ``max_n``.

    Each row carries n, d_n, d_n^(1/n), and the shifted ratio
    a_{n+1} = d_n/(n+1)^2 with its (n+1)-st root.  The report records every
    violation of d_{m-1} d_{n-1} <= (m+n-1) d_{m+n-1} over computed pairs,
    whether all roots stay below 4, and, once max_n >= 9, the exact
    a_10^(1/10) >= 1.12462 bound.
    """
    table = StackDegreeTable.compute(max_n)
    rows = []
    for n in range(1, max_n + 1):
        d = table[n]
        a = d / (n + 1) ** 2
        rows.append({
            "n": n,
            "d_n": d,
            "d_n_root": float(d) ** (1 / n),
            "a_next": a,
            "a_next_root": float(a) ** (1 / (n + 1)),
        })
    return GrowthReport(
        rows=rows,
        superadditivity_failures=table.superadditivity_failures(),
        roots_below_4=all(r["d_n_root"] < 4 for r in rows),
        a10_ok=a10_lower_bound_ok(table[9]) if max_n >= 9 else None,
    )
