"""Single-pass bubble sort on permutations and multiset words.

One pass sweeps left to right, swapping each adjacent descent.  On S_n the
pass satisfies B(L n R) = B(L) R n and becomes the constant map at the
identity after n - 1 passes.  On words with content a = (a_1, ..., a_r)
(a_j copies of letter j) the same sweep acts on W_a.

Gap digits.  A copy of letter v < r has gap digit g, the number of letters
larger than v to its left, 0 <= g <= L_v = a_(v+1) + ... + a_r.  A word is
the tuple of its letters' gap multisets: inserting the copies of r - 1,
r - 2, ..., 1 among the larger letters at their gaps rebuilds it, and
letter v has C(L_v + a_v, a_v) multisets, whose product is the multinomial.
One pass lowers every positive gap by one (the running maximum carried
past a copy is the one larger letter that crosses it, and no larger letter
crosses a copy with gap 0), so B^k sends each multiset through
g -> max(g - k, 0).  On S_n the gap digits are the inversion table, and
this is the decrement lemma (Knuth, TAOCP 3, 5.2.2).

``word_rank_table`` builds the table of B^k over W_a from these digits
alone, without enumerating a word, and ``bubble_rank_table`` is its call
with content (1, ..., 1).  The object-level maps ``bubble_endomap`` and
``word_bubble_endomap`` stay the oracles that check it.

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

import sys
from array import array
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, prod

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


def bubble_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(permutation_domain(n), bubble_sort)


def bubble_rank_table(n: int, k: int = 1) -> array:
    """The index table of B^k over S_n, in inversion-table rank order: the
    gap-digit kernel at content (1, ..., 1), where a permutation's rank is
    its inversion table read as a mixed-radix numeral.

    Equals ``iterate(bubble_endomap(n), k).table``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_ceiling(n)
    # S_0 and S_1 both have the one-point table
    return _gap_rank_table((1,) * max(n, 1), k)


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
    if not a:
        raise ValueError("content must be a nonempty tuple of positive counts")
    for i, x in enumerate(a, 1):
        if x < 1:
            raise ValueError(f"content must be positive counts: "
                             f"entry {i} of {len(a)} is {x}")
    return a


def multinomial(a) -> int:
    """(sum a)! / prod a_i! for a content a, as the product over the letters
    v of C(a_v + ... + a_r, a_v), so one huge letter costs no huge
    factorial."""
    a = check_content(a)[::-1]
    return prod(map(comb, accumulate(a), a))


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


# the most words of one content.  `degree word_bubble --force` builds its
# table with word_rank_table, 0.2 s and 28 MB for content (8,4,4) (900,900
# words); WordDomain lists every word, for `verify words` and the
# benchmark's sweep, and the object map over it took 3.6 s and 259 MB for
# that content (2 cores, Python 3.11)
_WORD_HARD_LIMIT = 10 ** 6


def _word_count(a: tuple[int, ...]) -> int | None:
    """multinomial(a) for a valid content a, or None once it exceeds
    _WORD_HARD_LIMIT.

    Each factor C(L_v + a_v, a_v) is built as C(M + j, j) for
    j = 1..min(a_v, L_v), with M = max(a_v, L_v).  Every partial product
    is at most the count, so the first one above the limit decides, before
    any integer much larger than the limit is built.
    """
    count, larger = 1, 0
    for av in reversed(a):
        top = max(av, larger)
        binom = 1
        for j in range(1, min(av, larger) + 1):
            binom = binom * (top + j) // j
            if count * binom > _WORD_HARD_LIMIT:
                return None
        count *= binom
        larger += av
    return count


def _check_word_count(a: tuple[int, ...]) -> None:
    """Refuse a valid content a with more than _WORD_HARD_LIMIT words
    before any word or table entry is built."""
    if _word_count(a) is None:
        raise ValueError(
            f"content {a} has more than {_WORD_HARD_LIMIT} words, the "
            f"enumeration limit")


class WordDomain(EnumeratedDomain):
    """Words with letter multiplicities a, ranked lexicographically."""

    def __init__(self, a):
        self.content = check_content(a)
        _check_word_count(self.content)
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


# ---------------------------------------------------------------------------
# the gap-digit kernel

def word_rank_table(a, k: int = 1) -> array:
    """The index table of B^k over W_a, in gap-digit rank order.

    Refuses more than _WORD_HARD_LIMIT words before it allocates; its
    fiber histogram is that of ``iterate(word_bubble_endomap(a), k)``.
    """
    a = check_content(a)
    _check_word_count(a)
    return _gap_rank_table(a, k)


def _gap_rank_table(a: tuple[int, ...], k: int) -> array:
    """The table of B^k over W_a from gap digits alone.

    A word's rank is the ranks of its letters' gap multisets read as a
    mixed-radix numeral, letter r - 1 least significant.  Letters are added
    from r - 1 down: for letter v, whose multiset m has image rank img[m],
    over the previous table T of size P, multiset m contributes a copy of T
    shifted by img[m] * P.
    """
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    table = array("I", [0])
    larger = 0
    for copies in reversed(a):
        images = _gap_images(copies, larger, k)
        size = len(table)
        table = _copies(table, ((size, m * size) for m in images))
        larger += copies
    return table


def _gap_images(copies: int, larger: int, k: int) -> array:
    """The rank of B^k's image of each gap multiset of one letter, in rank
    order, for `copies` gaps in 0..L, L = larger.

    A multiset is ranked by a sorted tuple x_1 <= ... <= x_d in colex order,
    rank sum_i C(x_i + i - 1, i), so the tuples with x_d <= j are the first
    C(j + d, d).  With a = copies, the tuple is the gaps themselves if
    a <= L (d = a, x <= L), and B^k sends x_i to max(x_i - k, 0) in place
    i.  Otherwise it is the conjugate: n_t = #{gaps >= t} for t = 1..L,
    sorted (d = L, x <= a); B^k sends n_t to n_(t+k), so the k largest drop
    and x_i moves to place i + k.  Either way d = min(a, L), and the image's
    rank is a sum of one term per place, so the images of the d-tuples
    are the images of the (d - 1)-tuples with x_(d-1) <= j plus the term
    of x_d = j, for each j.
    """
    if copies <= larger:
        depth, top = copies, larger

        def term(i, x):
            return comb(max(x - k, 0) + i - 1, i)
    else:
        depth, top = larger, copies

        def term(i, x):
            return comb(x + k + i - 1, k + i) if i <= larger - k else 0
    images = array("I", [0])
    for d in range(1, depth + 1):
        images = _copies(images, ((comb(j + d - 1, d - 1), term(d, j))
                                  for j in range(top + 1)))
    return images


def _copies(prev: array, pieces) -> array:
    """prev[:length] + shift for each (length, shift) of pieces, in turn.

    A shifted copy is one big-integer addition of `length` copies of shift
    to the copy's bytes, one lane per entry; a rank table stays below 2^32,
    so no lane carries into the next.
    """
    if len(prev) == 1:
        # every piece is one entry, which a bare sum builds faster
        return array("I", [prev[0] + shift for _, shift in pieces])
    data = memoryview(prev).cast("B")
    out = array("I")
    for length, shift in pieces:
        part = data[:length * prev.itemsize]
        if shift:
            lanes = int.from_bytes(array("I", [shift]) * length, sys.byteorder)
            part = (int.from_bytes(part, sys.byteorder) + lanes).to_bytes(
                len(part), sys.byteorder)
        out.frombytes(part)
    return out
