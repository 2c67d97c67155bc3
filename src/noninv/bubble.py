"""Single-pass bubble sort on permutations and multiset words.

One pass sweeps left to right, swapping each adjacent descent.  On S_n the
pass satisfies B(L n R) = B(L) R n, decrements every nonzero inversion-table
entry, and becomes the constant map at the identity after n - 1 passes.  On
words with content a = (a_1, ..., a_r) (a_j copies of letter j) the same
sweep acts on W_a.

Closed forms implemented here:

* |B^-k(pi)|: 0 if the fixed suffix of pi is shorter than k, else
  k! (k+1)^(lmax(pi) - k).
* deg(B^k : S_n) = (n + k^2 + k)! (k!)^2 / (n! (k^2 + 2k)!).
* m-th moment of |B^-1(B(pi))| over S_n:
  prod_{j=1}^{n-1} (2^(m+1) + n - j - 1) / (n - j + 1).
* deg(B : W_a) = prod_{j=1}^{r-1} (2 a_j / (a_{j+1} + ... + a_r + 1) + 1).

The iterate formulas are proved for k <= n, and B^k = B^min(k, n) as
functions (every pass at or past the (n-1)-st is the constant map), so the
iterate order is clamped to min(k, n) before the closed forms apply; the
clamped values agree with brute force for every k.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .endo import DomainCodec, EndoMap
from .perms import Perm, check_perm, lmax, permutation_domain, tail_length


def bubble_sort(seq) -> tuple:
    """One bubble-sort pass: swap each strict adjacent descent, left to right.

    >>> bubble_sort((4, 1, 6, 3, 5, 2))
    (1, 4, 3, 5, 2, 6)
    """
    out = list(seq)
    for i in range(len(out) - 1):
        if out[i] > out[i + 1]:
            out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def bubble_sort_recursive(pi: Perm) -> Perm:
    """Reference recursion B(L n R) = B(L) R n; permutations only."""
    return _bubble_rec(check_perm(pi))


def _bubble_rec(seq: tuple) -> tuple:
    if not seq:
        return seq
    m = seq.index(max(seq))
    return _bubble_rec(seq[:m]) + seq[m + 1 :] + (seq[m],)


def bubble_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(permutation_domain(n), bubble_sort)


def bubble_preimage_count(pi: Perm, k: int = 1) -> int:
    """|B^-k(pi)|, exactly."""
    pi = check_perm(pi)
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    k = min(k, len(pi))
    if tail_length(pi) < k:
        return 0
    return factorial(k) * (k + 1) ** (lmax(pi) - k)


def bubble_degree_formula(n: int, k: int = 1) -> Fraction:
    """deg(B^k : S_n), exactly; k = 1 reduces to (n+1)(n+2)/6."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    k = min(k, n)
    return Fraction(
        factorial(n + k * k + k) * factorial(k) ** 2,
        factorial(n) * factorial(k * k + 2 * k),
    )


def bubble_moment(n: int, m: int) -> Fraction:
    """m-th moment of the fiber size |B^-1(B(pi))| over uniform pi in S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    result = Fraction(1)
    for j in range(1, n):
        result *= Fraction(2 ** (m + 1) + n - j - 1, n - j + 1)
    return result


# ---------------------------------------------------------------------------
# words with a fixed multiset of letters

def word_content(w) -> tuple[int, ...]:
    """Multiplicity tuple of a word over 1..r; every letter up to max(w) must occur."""
    w = tuple(w)
    if not w:
        raise ValueError("empty word has no content")
    r = max(w)
    counts = [0] * r
    for x in w:
        if not 1 <= x <= r:
            raise ValueError(f"letter {x} outside 1..{r}")
        counts[x - 1] += 1
    if 0 in counts:
        raise ValueError(f"letter {counts.index(0) + 1} missing from word {w!r}")
    return tuple(counts)


def check_content(a) -> tuple[int, ...]:
    a = tuple(a)
    if not a or any(x < 1 for x in a):
        raise ValueError(f"content must be a nonempty tuple of positive counts: {a!r}")
    return a


def multinomial(a) -> int:
    return _multinomial_raw(check_content(a))


def words_of_content(a):
    """All words with content a, in lexicographic order."""
    return _words(check_content(a))


def _words(content):
    """Words with a valid content, lexicographically: Knuth's Algorithm L
    (TAOCP 4A, 7.2.1.2), which steps to the next multiset permutation in
    place, from the sorted word to the reversed one."""
    w = [letter for letter, c in enumerate(content, 1) for _ in range(c)]
    last = len(w) - 1
    while True:
        yield tuple(w)
        # the rightmost ascent w[j] < w[j + 1]; the suffix after j descends
        j = last - 1
        while j >= 0 and w[j] >= w[j + 1]:
            j -= 1
        if j < 0:
            return
        # swap w[j] with the rightmost larger letter, then sort the suffix
        m = last
        while w[j] >= w[m]:
            m -= 1
        w[j], w[m] = w[m], w[j]
        w[j + 1:] = w[:j:-1]


class WordDomain(DomainCodec):
    """Words with letter multiplicities a, ranked lexicographically."""

    _MATERIALIZE_MAX = 10**5

    def __init__(self, a):
        self.content = check_content(a)
        self.size = multinomial(self.content)
        self._objs: list[tuple[int, ...]] | None = None
        self._idx: dict[tuple[int, ...], int] | None = None

    def _key(self) -> tuple[int, ...]:
        return self.content

    def _materialize(self) -> None:
        self._objs = list(_words(self.content))
        self._idx = {w: i for i, w in enumerate(self._objs)}

    def rank(self, obj) -> int:
        if self._idx is not None:
            # the keys are exactly the words of this content, so a hit is
            # the word_content verdict without its count
            try:
                return self._idx[obj]
            except (KeyError, TypeError):
                pass
        w = tuple(obj)
        if word_content(w) != self.content:
            raise ValueError(f"word {w!r} does not have content {self.content}")
        if self._idx is None and self.size <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._idx is not None:
            return self._idx[w]
        return self._arithmetic_rank(w)

    def _arithmetic_rank(self, w) -> int:
        counts = list(self.content)
        rank = 0
        for letter in w:
            for c in range(1, letter):
                if counts[c - 1]:
                    counts[c - 1] -= 1
                    rank += _multinomial_raw(counts)
                    counts[c - 1] += 1
            counts[letter - 1] -= 1
        return rank

    def unrank(self, index: int):
        self._check_index(index)
        if self._objs is None and self.size <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._objs is not None:
            return self._objs[index]
        counts = list(self.content)
        out = []
        for _ in range(sum(self.content)):
            for letter in range(1, len(counts) + 1):
                if not counts[letter - 1]:
                    continue
                counts[letter - 1] -= 1
                block = _multinomial_raw(counts)
                if index < block:
                    out.append(letter)
                    break
                index -= block
                counts[letter - 1] += 1
        return tuple(out)

    def objects(self):
        if self._objs is None and self.size <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._objs is not None:
            return iter(self._objs)
        return _words(self.content)


def _multinomial_raw(counts) -> int:
    """(sum counts)! / prod counts_i!; zero counts allowed."""
    result = factorial(sum(counts))
    for x in counts:
        result //= factorial(x)
    return result


def word_bubble_endomap(a) -> EndoMap:
    return EndoMap.from_function(WordDomain(a), bubble_sort)


def word_degree_formula(a) -> Fraction:
    """deg(B : W_a) for r >= 2 letters.

    For r = 1 the domain is a single word and the map is the identity
    (degree 1); that case is rejected here so the caller can flag it.
    """
    a = check_content(a)
    if len(a) < 2:
        raise ValueError("content must have r >= 2 letters (r = 1 gives the identity map, degree 1)")
    result = Fraction(1)
    for j in range(1, len(a)):
        result *= 2 * Fraction(a[j - 1], sum(a[j:]) + 1) + 1
    return result
