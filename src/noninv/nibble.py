"""Nibble sort on permutations and on binary words, and chip-firing.

Nibble sort fixes sorted input and otherwise swaps the entries at the first
descent.  On permutations its degree has an exact factorial-sum expression
that converges to 4e - 9.  On binary words the analogous move rewrites the
first occurrence of the factor 10 to 01.

The chip-firing map acts on 0/1 configurations of a path: add one chip at
the left end, then repeatedly fire any site holding two or more chips,
sending one chip to each neighbor; chips pushed off either end vanish.  The
stable result is again a 0/1 word.  Both binary maps have degree exactly
3/2 on words of length n >= 2, with identical fiber histograms, although
they are not conjugate: nibble has fixed points and chip-firing has none.
"""

from __future__ import annotations

import itertools
import math
import warnings
from array import array
from collections import deque
from fractions import Fraction
from typing import Sequence

from .endo import DomainCodec, EndoMap, degree
from .perms import Perm, _t, permutation_domain

Bits = tuple[int, ...]


def _nibble(pi: Perm) -> Perm:
    """Swap the entries at the first descent; sorted input is fixed."""
    for i in range(1, len(pi)):
        if pi[i - 1] > pi[i]:
            return _t(pi, i)
    return pi


def nibble_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(permutation_domain(n), _nibble)


def nibble_degree_formula(n: int) -> Fraction:
    """Exact degree of nibble sort on S_n.

    ((n-1)(n-2)^2 + n^2)/n! plus the partial sum of k(k^3-k+1)/(k+2)!
    for 1 <= k <= n-2.  From n = 3 the values decrease to 4e - 9.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction((n - 1) * (n - 2) ** 2 + n * n, math.factorial(n))
    for k in range(1, n - 1):
        total += Fraction(k * (k ** 3 - k + 1), math.factorial(k + 2))
    return total


def nibble_degree_limit() -> float:
    """Limit of the nibble degrees, 4e - 9 = 1.8731273..."""
    return 4 * math.e - 9


# the longest words the codec and the rank kernels tabulate: `degree chip
# --n 24 --force` (2^24 words, from chip_rank_table) takes 1.7-2.0 s and
# `nibble_bin` 1.7-2.6 s, each peaking at 101 MB, on 2 cores, Python 3.11;
# tabulating either object map at n = 24 takes 90-120 s and 790 MB
_BINARY_HARD_LIMIT = 24


def _check_length(n: int, least: int) -> None:
    """Refuse words shorter than least or longer than _BINARY_HARD_LIMIT
    before anything is built."""
    if n < least:
        raise ValueError(f"words of length {n} are outside the tabulation "
                         f"range {least} <= n <= {_BINARY_HARD_LIMIT}")
    if n > _BINARY_HARD_LIMIT:
        raise ValueError(f"words of length {n} exceed the enumeration "
                         f"limit n <= {_BINARY_HARD_LIMIT}")


class BinaryDomain(DomainCodec):
    """All binary words of a fixed length, ranked as big-endian integers."""

    def __init__(self, n: int):
        _check_length(n, 0)
        self.n = n

    @property
    def size(self) -> int:
        return 1 << self.n

    def rank(self, word: Bits) -> int:
        if len(word) != self.n or any(b not in (0, 1) for b in word):
            raise ValueError(f"not a binary word of length {self.n}: {word!r}")
        r = 0
        for b in word:
            r = (r << 1) | b
        return r

    def unrank(self, r: int) -> Bits:
        self._check_index(r)
        return tuple((r >> (self.n - 1 - i)) & 1 for i in range(self.n))

    def objects(self):
        # big-endian ranks count up in lexicographic order
        return itertools.product((0, 1), repeat=self.n)


def nibble_binary(word: Sequence[int]) -> Bits:
    """Rewrite the first factor 10 to 01; words without 10 are fixed."""
    w = tuple(word)
    for i in range(len(w) - 1):
        if w[i] == 1 and w[i + 1] == 0:
            return w[:i] + (0, 1) + w[i + 2:]
    return w


def chip_fire(word: Sequence[int]) -> Bits:
    """Add a chip at the left end and stabilize the path configuration.

    A site holding >= 2 chips fires, sending one chip to each neighbor;
    chips leaving either end of the path disappear.  Sites fire in worklist
    order; stabilization is abelian, so any order gives the same stable word.
    """
    chips = list(word)
    if not chips:
        raise ValueError("configuration must have length >= 1")
    if any(b not in (0, 1) for b in chips):
        raise ValueError("configuration must be a 0/1 word")
    return _chip_fire(chips)


def _chip_fire(chips: list[int]) -> Bits:
    # chip_fire on a nonempty 0/1 list, which it modifies
    n = len(chips)
    chips[0] += 1
    work = deque(i for i in range(n) if chips[i] >= 2)
    while work:
        i = work.popleft()
        if chips[i] < 2:
            continue
        chips[i] -= 2
        if i > 0:
            chips[i - 1] += 1
        if i + 1 < n:
            chips[i + 1] += 1
        for j in (i - 1, i, i + 1):
            if 0 <= j < n and chips[j] >= 2:
                work.append(j)
    return tuple(chips)


def nibble_binary_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(BinaryDomain(n), nibble_binary)


def chip_endomap(n: int) -> EndoMap:
    if n < 1:
        raise ValueError("chip-firing needs length >= 1")
    return EndoMap.from_function(BinaryDomain(n),
                                 lambda word: _chip_fire(list(word)))


def nibble_rank_table(n: int) -> array:
    """The index table of nibble sort on {0,1}^n, from ranks alone.

    Lemma.  With big-endian ranks, the word 0^a 1^b 0 r (b >= 1) goes to
    0^a 1^(b-1) 0 1 r, rank x - 2^(n-a-b-1), and the words 0^a 1^(n-a)
    are fixed.  Proof: the first factor 10 of 0^a 1^b 0 r is the last 1
    of 1^b with the 0 after it, and only the words 0^a 1^(n-a) have none.

    For fixed a and b the words 0^a 1^b 0 r fill one run of consecutive
    ranks that shifts by a constant, so in rank order (a from n down to 0,
    then b up, then the fixed word) the table is a concatenation of ranges.
    Equals ``nibble_binary_endomap(n).table``.
    """
    _check_length(n, 1)
    table = array("I", [0])
    for a in range(n - 1, -1, -1):
        for b in range(1, n - a):
            lo = ((1 << b) - 1) << (n - a - b)
            table.extend(range(lo - (1 << (n - a - b - 1)), lo))
        table.append((1 << (n - a)) - 1)
    return table


def chip_rank_table(n: int) -> array:
    """The index table of chip-firing on {0,1}^n, from ranks alone.

    Lemma.  With big-endian ranks, 0 r goes to 1 r (rank x + 2^(n-1)),
    1^k 0 r with k >= 1 to 1^(k-1) 0 1 r (rank x - 2^(n-k-1)), and 1^n to
    1^(n-1) 0.  Proof: after the chip lands on site 0, fire sites 0, 1,
    ..., k-1 once each, left to right.  Each holds two chips when its turn
    comes (site i gets its second chip from site i-1).  Sites 0..k-2 end
    with one chip, site k - 1 with none and site k, which held none, with
    one; one chip leaves at the left end.  For 1^n (k = n) the chip site
    n - 1 fires to the right leaves instead.  That word is stable, so by
    the abelian property it is the stabilization.  A word 0 r fires
    nothing.

    For each k the words 1^k 0 r fill one run of consecutive ranks that
    shifts by a constant, so the table is a concatenation of ranges.
    Equals ``chip_endomap(n).table``.
    """
    _check_length(n, 1)
    size = 1 << n
    table = array("I", range(size >> 1, size))
    for k in range(1, n):
        lo = size - (size >> k)
        table.extend(range(lo - (size >> (k + 1)), lo))
    table.append(size - 2)
    return table


def _check_binary_map(map_id: str, n: int) -> None:
    # warns on behalf of the caller of binary_degree
    if map_id not in ("nib", "chi"):
        raise ValueError(f"unknown binary map {map_id!r}; use 'nib' or 'chi'")
    if n < 2:
        warnings.warn(f"n = {n} is outside the degree-3/2 theorem scope (n >= 2)",
                      stacklevel=3)


def binary_degree(map_id: str, n: int) -> Fraction:
    """Brute-force degree of a binary map ('nib' or 'chi') on {0,1}^n; n < 2
    is outside the degree-3/2 theorems' scope, tabulated with a warning."""
    _check_binary_map(map_id, n)
    return degree(nibble_binary_endomap(n) if map_id == "nib"
                  else chip_endomap(n))


def expected_binary_histogram(n: int) -> dict[int, int]:
    """Fiber-size histogram shared by both binary maps for n >= 2."""
    if n < 2:
        raise ValueError("histogram form needs n >= 2")
    return {0: 1 << (n - 2), 1: 1 << (n - 1), 2: 1 << (n - 2)}
