"""Exact noninvertibility degrees for self-maps of finite sets.

A self-map f : X -> X of an n-element set is stored as an index table over a
domain codec (a bijection between X and 0..n-1).  Its degree of
noninvertibility is the mean squared fiber size,

    deg(f) = (1/n) * sum_y |f^-1(y)|^2 = (1/n) * sum_x |f^-1(f(x))|,

an exact rational with 1 <= deg(f) <= n; deg(f) = 1 exactly for bijections
and deg(f) = n exactly for constant maps.  n * deg(f) counts the ordered
pairs (x, x') with f(x) = f(x').
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator


class DomainCodec:
    """Bijection between an n-element domain and the indices 0..n-1.

    Subclasses set ``size`` and implement ``rank``/``unrank``.
    """

    size: int

    def rank(self, obj) -> int:
        raise NotImplementedError

    def unrank(self, index: int):
        raise NotImplementedError

    def objects(self) -> Iterator:
        """All domain objects in rank order."""
        return (self.unrank(i) for i in range(self.size))

    def _key(self):
        """What fixes the encoding within one codec class; the size, unless
        two domains of a class can have the same size."""
        return self.size

    def __eq__(self, other) -> bool:
        """Codecs of one class with equal keys encode one domain alike, so
        maps tabulated over separately built codecs still compose."""
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self), self._key()))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for domain of size {self.size}")


class IndexDomain(DomainCodec):
    """Trivial codec whose objects are the indices 0..n-1 themselves."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("domain size must be nonnegative")
        self.size = size

    def rank(self, obj) -> int:
        index = int(obj)
        self._check_index(index)
        return index

    def unrank(self, index: int) -> int:
        self._check_index(index)
        return index


@dataclass(frozen=True)
class EndoMap:
    """A self-map of a finite domain, tabulated as index -> index."""

    codec: DomainCodec
    table: tuple[int, ...]

    def __post_init__(self):
        n = self.codec.size
        if len(self.table) != n:
            raise ValueError(f"table length {len(self.table)} != domain size {n}")
        table = self.table
        if table and (min(table) < 0 or max(table) >= n):
            bad = next(v for v in table if not 0 <= v < n)
            raise ValueError(f"table entry {bad} out of range 0..{n - 1}")

    @property
    def n(self) -> int:
        return self.codec.size

    @classmethod
    def from_function(cls, codec: DomainCodec, fn: Callable) -> "EndoMap":
        """Tabulate fn over the whole domain.

        fn sees the codec's own objects in rank order, so it may skip input
        checks; its images are checked by ``codec.rank`` and the table by
        ``__post_init__``.
        """
        return cls(codec, tuple(map(codec.rank, map(fn, codec.objects()))))

    @classmethod
    def from_table(cls, table) -> "EndoMap":
        """Wrap a raw index table with a trivial codec."""
        table = tuple(table)
        return cls(IndexDomain(len(table)), table)

    def apply(self, obj):
        """Apply the map to a domain object (not an index)."""
        return self.codec.unrank(self.table[self.codec.rank(obj)])

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "table": list(self.table)}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EndoMap":
        obj = json.loads(text)
        if obj["n"] != len(obj["table"]):
            raise ValueError("inconsistent serialized map: n != len(table)")
        return cls.from_table(obj["table"])


@dataclass
class FiberHistogram:
    """Multiset of fiber sizes: counts[s] = number of points with |f^-1(y)| = s.

    Both sum_s counts[s] (points of the codomain) and sum_s s*counts[s]
    (points of the domain) equal the domain size, since size-0 fibers are
    included.
    """

    counts: dict[int, int]

    @classmethod
    def from_map(cls, f: EndoMap) -> "FiberHistogram":
        return cls.from_sizes(fiber_sizes(f.table))

    @classmethod
    def from_sizes(cls, sizes) -> "FiberHistogram":
        """Histogram of fiber sizes listed once per codomain point."""
        return cls(dict(sorted(Counter(sizes).items())))

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def degree(self) -> Fraction:
        return Fraction(sum(s * s * c for s, c in self.counts.items()), self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiberHistogram):
            return NotImplemented
        return self.counts == other.counts


def fiber_sizes(table) -> list[int]:
    """sizes[y] = |f^-1(y)| for an index table over 0..len(table)-1."""
    sizes = [0] * len(table)
    for v in table:
        sizes[v] += 1
    return sizes


def square_sum(sizes) -> int:
    """Sum of squared fiber sizes, for fibers counted by any means."""
    return sum(c * c for c in sizes)


def collisions(table) -> int:
    """Ordered pairs (x, x') with table[x] == table[x'].

    This is the sum of squared fiber sizes, n * deg(f), as an exact integer.
    """
    return square_sum(fiber_sizes(table))


def degree(f: EndoMap) -> Fraction:
    """Mean squared fiber size of f, exact."""
    if f.n == 0:
        raise ValueError("degree is undefined on the empty domain")
    return Fraction(collisions(f.table), f.n)


def pair_collision_count(f: EndoMap) -> int:
    """Number of ordered pairs (x, x') with f(x) = f(x'); equals n * deg(f)."""
    return collisions(f.table)


def fiber_histogram(f: EndoMap) -> FiberHistogram:
    if f.n == 0:
        raise ValueError("fiber histogram is undefined on the empty domain")
    return FiberHistogram.from_map(f)


def degree_bounds(f: EndoMap) -> tuple[Fraction, int]:
    """Sandwich for the degree: n/|f(X)| <= deg(f) <= max fiber size."""
    if f.n == 0:
        raise ValueError("degree bounds are undefined on the empty domain")
    sizes = fiber_sizes(f.table)
    return Fraction(f.n, f.n - sizes.count(0)), max(sizes)


def compose_tables(ft, gt) -> tuple[int, ...]:
    """The table of f after g, (ft[v] for v in gt), in one C-level call."""
    if len(gt) > 1:
        return itemgetter(*gt)(ft)
    # itemgetter returns a bare item for one key and needs at least one key
    return (ft[gt[0]],) if gt else ()


def iterate_table(table, k: int) -> tuple[int, ...]:
    """The table of the k-th iterate, k >= 0; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    if k == 0:
        return tuple(range(len(table)))
    out = tuple(table)
    for _ in range(k - 1):
        out = compose_tables(table, out)
    return out


def compose(f: EndoMap, g: EndoMap) -> EndoMap:
    """The composite f after g (first g, then f)."""
    if f.n != g.n:
        raise ValueError(f"codec size mismatch: {f.n} != {g.n}")
    if f.codec != g.codec:
        raise ValueError("cannot compose maps over different domains")
    return EndoMap(g.codec, compose_tables(f.table, g.table))


def iterate(f: EndoMap, k: int) -> EndoMap:
    """The k-th functional iterate of f; k = 0 gives the identity."""
    return EndoMap(f.codec, iterate_table(f.table, k))


def is_bijection(f: EndoMap) -> bool:
    return len(set(f.table)) == f.n


def is_constant(f: EndoMap) -> bool:
    return len(set(f.table)) <= 1


def are_pseudoconjugate(f: EndoMap, g: EndoMap) -> bool:
    """Whether f and g have identical fiber-size histograms.

    This is an equivalence relation; pseudoconjugate maps have equal degrees.
    Conjugate maps (relabelings of one another) are always pseudoconjugate,
    but not conversely.
    """
    if f.n != g.n:
        return False
    return fiber_histogram(f) == fiber_histogram(g)


def collision_entropy(f: EndoMap) -> float:
    """log(n / deg(f)): the collision (order-2 Renyi) entropy of a uniform
    input pushed through f.  0 for constant maps, log n for bijections."""
    d = degree(f)
    # big-integer safe: log(n/d) with d = p/q is log(n*q) - log(p)
    return math.log(f.n * d.denominator) - math.log(d.numerator)
