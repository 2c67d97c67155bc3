"""Reference implementations that only the tests call.

Each is a second, plainer route to something the library computes its own
way: a recursion beside a sweep, a rank formula beside a materialized
codec, a fiber rule beside an enumerated table.  The library never calls
them, so they live here rather than in ``noninv``.
"""

from math import comb, factorial

from noninv.perms import check_perm
from noninv.solitaire import check_composition


# ---------------------------------------------------------------------------
# permutations


def inversion_table(pi) -> tuple[int, ...]:
    """e_j = the number of entries larger than j to the left of j."""
    n = len(pi)
    pos = [0] * (n + 1)
    for p, v in enumerate(pi):
        pos[v] = p
    return tuple(sum(1 for p in range(pos[j]) if pi[p] > j)
                 for j in range(1, n + 1))


def from_inversion_table(e) -> tuple[int, ...]:
    """The permutation whose inversion table is e."""
    # insert values n, n-1, ..., 1; inserting j at slot e_j leaves exactly
    # e_j larger values to its left, and later (smaller) insertions keep that
    n = len(e)
    out: list[int] = []
    for j in range(n, 0, -1):
        out.insert(e[j - 1], j)
    return tuple(out)


def perm_rank(pi) -> int:
    """The rank of pi: its inversion table read as a mixed-radix numeral,
    e_j in radix n - j + 1."""
    n = len(pi)
    e = inversion_table(pi)
    return sum(e[j - 1] * factorial(n - j) for j in range(1, n + 1))


def perm_unrank(r: int, n: int) -> tuple[int, ...]:
    """Inverse of perm_rank."""
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for S_{n}")
    e = []
    for j in range(1, n + 1):
        w = factorial(n - j)
        e.append(r // w)
        r %= w
    return from_inversion_table(e)


# ---------------------------------------------------------------------------
# sorting passes


def bubble_sort_recursive(pi) -> tuple[int, ...]:
    """Bubble sort by the recursion B(L n R) = B(L) R n, permutations only."""
    return _bubble_rec(check_perm(pi))


def _bubble_rec(seq: tuple) -> tuple:
    if not seq:
        return seq
    m = seq.index(max(seq))
    return _bubble_rec(seq[:m]) + seq[m + 1:] + (seq[m],)


def stack_sort(seq) -> tuple:
    """One stack-sorting pass over a sequence of distinct entries."""
    out: list = []
    stack: list = []
    for x in seq:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def stack_sort_recursive(pi) -> tuple[int, ...]:
    """Stack sort by the recursion s(L m R) = s(L) s(R) m."""
    return _stack_rec(check_perm(pi))


def _stack_rec(seq: tuple) -> tuple:
    if not seq:
        return ()
    m = seq.index(max(seq))
    return _stack_rec(seq[:m]) + _stack_rec(seq[m + 1:]) + (seq[m],)


# ---------------------------------------------------------------------------
# fiber rules


def chip_two_preimage_words(n: int) -> set[tuple[int, ...]]:
    """Words with exactly two chip-firing preimages: 1^(n-1)0 and 1^k01x,
    k >= 1."""
    if n < 2:
        raise ValueError("needs n >= 2")
    out = {tuple([1] * (n - 1) + [0])}
    for k in range(1, n - 1):
        head = tuple([1] * k + [0, 1])
        for tail in range(1 << (n - k - 2)):
            suffix = tuple((tail >> (n - k - 3 - i)) & 1
                           for i in range(n - k - 2))
            out.add(head + suffix)
    return out


def carolina_preimage_count(c) -> int:
    """Number of Carolina preimages of a composition, C(c_1, ell - 1)."""
    c = check_composition(c)
    # the empty composition is its own and only preimage
    return comb(c[0], len(c) - 1) if c else 1
