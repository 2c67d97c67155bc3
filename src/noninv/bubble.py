"""Single-pass bubble sort on permutations and multiset words.

One pass sweeps left to right, swapping each adjacent descent.  On S_n the
pass satisfies B(L n R) = B(L) R n, decrements every nonzero inversion-table
entry, and becomes the constant map at the identity after n - 1 passes.  On
words with content a = (a_1, ..., a_r) (a_j copies of letter j) the same
sweep acts on W_a.

The decrement lemma (Knuth, TAOCP 3, 5.2.2) gives a second tabulation of
B^k on S_n: a permutation's rank is its inversion table read as a
mixed-radix numeral, so ``bubble_rank_table`` builds the table of B^k from
ranks alone, each digit e becoming max(e - k, 0), without enumerating S_n.
The object-level map ``bubble_endomap`` stays the oracle that checks it.

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

from .endo import EndoMap, EnumeratedDomain
from .perms import (Perm, _check_ceiling, check_perm, lmax,
                    permutation_domain, tail_length)


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
    """Reference recursion B(L n R) = B(L) R n, permutations only: the
    oracle of test_sweep_matches_recursion."""
    return _bubble_rec(check_perm(pi))


def _bubble_rec(seq: tuple) -> tuple:
    if not seq:
        return seq
    m = seq.index(max(seq))
    return _bubble_rec(seq[:m]) + seq[m + 1 :] + (seq[m],)


def bubble_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(permutation_domain(n), bubble_sort)


def bubble_rank_table(n: int, k: int = 1) -> list[int]:
    """The index table of B^k over S_n, in inversion-table rank order.

    Pass k lowers every inversion-table digit e to max(e - k, 0).  Digits
    are added from the least significant (radix 2) up: for a new digit of
    radix r over the previous table T of size P, value e contributes a copy
    of T shifted by max(e - k, 0) * P, so digits e <= k repeat T as is.
    Equals ``iterate(bubble_endomap(n), k).table``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_ceiling(n)
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    table = [0]
    size = 1
    for radix in range(2, n + 1):
        prev = table
        table = prev * min(radix, k + 1)
        for e in range(k + 1, radix):
            shift = (e - k) * size
            table += [t + shift for t in prev]
        size *= radix
    return table


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
    """(sum a)! / prod a_i! for a content a."""
    a = check_content(a)
    result = factorial(sum(a))
    for x in a:
        result //= factorial(x)
    return result


def words_of_content(a):
    """All words with content a, in lexicographic order: the oracle of
    brute_word_degree in test_word_degree_formula_small_contents."""
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


# the most words the codec enumerates: `degree word_bubble --content 8,4,4
# --force` (900,900 words) takes 5 s and peaks at 262 MB on 2 cores,
# Python 3.11
_WORD_HARD_LIMIT = 10 ** 6


class WordDomain(EnumeratedDomain):
    """Words with letter multiplicities a, ranked lexicographically."""

    def __init__(self, a):
        self.content = check_content(a)
        size = multinomial(self.content)
        if size > _WORD_HARD_LIMIT:
            raise ValueError(
                f"{size} words of content {self.content} exceed the "
                f"enumeration limit {_WORD_HARD_LIMIT}")
        super().__init__(list(_words(self.content)))

    def _key(self) -> tuple[int, ...]:
        return self.content

    def _check(self, obj) -> tuple[int, ...]:
        w = tuple(obj)
        if word_content(w) != self.content:
            raise ValueError(f"word {w!r} does not have content {self.content}")
        return w


# word count above which `degree word_bubble` needs --force and `verify
# words` skips a content
_WORD_LIMIT = 10 ** 4


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
