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
from collections import deque
from fractions import Fraction
from typing import Callable, Sequence

from .endo import DomainCodec, EndoMap, degree
from .perms import Perm, _t, check_perm, permutation_domain

Bits = tuple[int, ...]


def nibble(pi: Perm) -> Perm:
    """Swap the entries at the first descent; sorted input is fixed."""
    return _nibble(check_perm(pi))


def _nibble(pi: Perm) -> Perm:
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


class BinaryDomain(DomainCodec):
    """All binary words of a fixed length, ranked as big-endian integers."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("length must be >= 0")
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


def parse_bits(text: str) -> Bits:
    """Read a word like '0110' into a bit tuple."""
    if any(c not in "01" for c in text):
        raise ValueError(f"not a 0/1 string: {text!r}")
    return tuple(int(c) for c in text)


def format_bits(word: Sequence[int]) -> str:
    return "".join(str(b) for b in word)


def nibble_binary(word: Sequence[int]) -> Bits:
    """Rewrite the first factor 10 to 01; words without 10 are fixed."""
    w = tuple(word)
    for i in range(len(w) - 1):
        if w[i] == 1 and w[i + 1] == 0:
            return w[:i] + (0, 1) + w[i + 2:]
    return w


def chip_fire(word: Sequence[int],
              pick: Callable[[list[int]], int] | None = None) -> Bits:
    """Add a chip at the left end and stabilize the path configuration.

    A site holding >= 2 chips fires, sending one chip to each neighbor;
    chips leaving either end of the path disappear.  ``pick`` chooses which
    unstable site fires next; stabilization is abelian, so any choice gives
    the same stable word.  The default fires in worklist order.
    """
    chips = list(word)
    if not chips:
        raise ValueError("configuration must have length >= 1")
    if any(b not in (0, 1) for b in chips):
        raise ValueError("configuration must be a 0/1 word")
    return _chip_fire(chips, pick)


def _chip_fire(chips: list[int],
               pick: Callable[[list[int]], int] | None = None) -> Bits:
    # chip_fire on a nonempty 0/1 list, which it modifies
    n = len(chips)
    chips[0] += 1

    def fire(i: int) -> None:
        chips[i] -= 2
        if i > 0:
            chips[i - 1] += 1
        if i + 1 < n:
            chips[i + 1] += 1

    if pick is None:
        work = deque(i for i in range(n) if chips[i] >= 2)
        while work:
            i = work.popleft()
            if chips[i] < 2:
                continue
            fire(i)
            for j in (i - 1, i, i + 1):
                if 0 <= j < n and chips[j] >= 2:
                    work.append(j)
    else:
        while True:
            unstable = [i for i in range(n) if chips[i] >= 2]
            if not unstable:
                break
            fire(pick(unstable))
    return tuple(chips)


def nibble_binary_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(BinaryDomain(n), nibble_binary)


def chip_endomap(n: int) -> EndoMap:
    if n < 1:
        raise ValueError("chip-firing needs length >= 1")
    return EndoMap.from_function(BinaryDomain(n),
                                 lambda word: _chip_fire(list(word)))


_BINARY_MAPS = {
    "nib": nibble_binary_endomap,
    "chi": chip_endomap,
}


def binary_endomap(map_id: str, n: int, limit: int = 20) -> EndoMap:
    """A binary map ('nib' or 'chi') on words of length n, tabulated.

    The degree-3/2 theorems assume n >= 2; smaller n is tabulated anyway but
    flagged with a warning as outside theorem scope.
    """
    if map_id not in _BINARY_MAPS:
        raise ValueError(f"unknown binary map {map_id!r}; use 'nib' or 'chi'")
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the exhaustive limit {limit}; "
            f"pass limit={n} explicitly to enumerate 2^{n} words"
        )
    if n < 2:
        warnings.warn(f"n = {n} is outside the degree-3/2 theorem scope (n >= 2)",
                      stacklevel=2)
    return _BINARY_MAPS[map_id](n)


def binary_degree(map_id: str, n: int, limit: int = 20) -> Fraction:
    """Brute-force degree of binary_endomap(map_id, n, limit)."""
    return degree(binary_endomap(map_id, n, limit=limit))


def expected_binary_histogram(n: int) -> dict[int, int]:
    """Fiber-size histogram shared by both binary maps for n >= 2."""
    if n < 2:
        raise ValueError("histogram form needs n >= 2")
    return {0: 1 << (n - 2), 1: 1 << (n - 1), 2: 1 << (n - 2)}


def chip_two_preimage_words(n: int) -> set[Bits]:
    """Words with exactly two chip-firing preimages: 1^(n-1)0 and 1^k01x, k >= 1."""
    if n < 2:
        raise ValueError("needs n >= 2")
    out = {tuple([1] * (n - 1) + [0])}
    for k in range(1, n - 1):
        head = tuple([1] * k + [0, 1])
        for tail in range(1 << (n - k - 2)):
            suffix = tuple((tail >> (n - k - 3 - i)) & 1 for i in range(n - k - 2))
            out.add(head + suffix)
    return out
