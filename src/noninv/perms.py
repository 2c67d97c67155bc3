"""Permutations of {1..n} in one-line notation, stored as tuples.

Ranking and unranking go through the inversion table e = (e_1, ..., e_n),
where e_j counts entries larger than j that sit to the left of j; entry e_j
ranges over 0..n-j, so e is a mixed-radix numeral for a rank in 0..n!-1.
"""

from __future__ import annotations

from math import factorial

from .endo import DomainCodec

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_perm(seq) -> bool:
    return sorted(seq) == list(range(1, len(seq) + 1))


def check_perm(pi) -> Perm:
    pi = tuple(pi)
    if not is_perm(pi):
        raise ValueError(f"not a permutation of 1..{len(pi)}: {pi!r}")
    return pi


def apply_t(pi: Perm, i: int) -> Perm:
    """Sorting operator t_i: swap positions i, i+1 (1-based) if descending."""
    if not 1 <= i <= len(pi) - 1:
        raise ValueError(f"t_{i} undefined on length {len(pi)}")
    return _t(pi, i)


def _t(pi: Perm, i: int) -> Perm:
    # apply_t for an index already known to lie in 1..len(pi)-1
    if pi[i - 1] > pi[i]:
        return pi[: i - 1] + (pi[i], pi[i - 1]) + pi[i + 1 :]
    return pi


def descents(pi: Perm) -> tuple[int, ...]:
    """1-based positions i with pi_i > pi_{i+1}."""
    return tuple(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def inversion_table(pi: Perm) -> tuple[int, ...]:
    n = len(pi)
    pos = [0] * (n + 1)
    for p, v in enumerate(pi):
        pos[v] = p
    return tuple(sum(1 for p in range(pos[j]) if pi[p] > j) for j in range(1, n + 1))


def from_inversion_table(e) -> Perm:
    # insert values n, n-1, ..., 1; inserting j at slot e_j leaves exactly
    # e_j larger values to its left, and later (smaller) insertions keep that
    n = len(e)
    out: list[int] = []
    for j in range(n, 0, -1):
        out.insert(e[j - 1], j)
    return tuple(out)


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


def perm_rank(pi: Perm) -> int:
    n = len(pi)
    e = inversion_table(pi)
    r = 0
    for j in range(1, n + 1):
        r += e[j - 1] * factorial(n - j)
    return r


def perm_unrank(r: int, n: int) -> Perm:
    if not 0 <= r < factorial(n):
        raise ValueError(f"rank {r} out of range for S_{n}")
    e = []
    for j in range(1, n + 1):
        w = factorial(n - j)
        e.append(r // w)
        r %= w
    return from_inversion_table(e)


class PermutationDomain(DomainCodec):
    """S_n in inversion-table rank order."""

    _MATERIALIZE_MAX = 10

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        self.size = factorial(n)
        self._objs: list[Perm] | None = None
        self._idx: dict[Perm, int] | None = None

    def _key(self) -> int:
        return self.n  # S_0 and S_1 both have one element

    def _materialize(self) -> None:
        # from_inversion_table for every e at once: inserting v at slot e_v
        # into each tuple of the previous level, slot-major, keeps the
        # inversion tables in lex order, which is rank order
        objs: list[Perm] = [()]
        for v in range(self.n, 0, -1):
            objs = [t[:s] + (v,) + t[s:]
                    for s in range(self.n - v + 1) for t in objs]
        self._objs = objs
        self._idx = {p: i for i, p in enumerate(objs)}

    def rank(self, obj) -> int:
        if self._idx is not None:
            # the keys are exactly the length-n permutations, so a hit is
            # the check_perm verdict without its sort
            try:
                return self._idx[obj]
            except (KeyError, TypeError):
                pass
        pi = check_perm(obj)
        if len(pi) != self.n:
            raise ValueError(f"length {len(pi)} permutation in S_{self.n} domain")
        if self._idx is None and self.n <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._idx is not None:
            return self._idx[pi]
        return perm_rank(pi)

    def unrank(self, index: int) -> Perm:
        self._check_index(index)
        if self._objs is None and self.n <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._objs is not None:
            return self._objs[index]
        return perm_unrank(index, self.n)

    def objects(self):
        if self._objs is None and self.n <= self._MATERIALIZE_MAX:
            self._materialize()
        if self._objs is not None:
            return iter(self._objs)
        return super().objects()


_domain_cache: dict[int, PermutationDomain] = {}


def permutation_domain(n: int) -> PermutationDomain:
    """Shared S_n codec, cached so tabulated maps can be composed."""
    if n not in _domain_cache:
        _domain_cache[n] = PermutationDomain(n)
    return _domain_cache[n]
