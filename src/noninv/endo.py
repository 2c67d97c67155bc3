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

from array import array
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul
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


class EnumeratedDomain(DomainCodec):
    """Codec over a materialized list of its objects in rank order.

    Subclasses pass the list of their objects to ``__init__``, after
    refusing any domain too large to hold in memory, and implement
    ``_check``, which returns the canonical object for a valid input and
    raises ValueError otherwise.
    """

    def __init__(self, objects: list):
        self._objs = objects
        self._idx = dict(zip(objects, range(len(objects))))
        self.size = len(objects)

    def _check(self, obj):
        raise NotImplementedError

    def rank(self, obj) -> int:
        # the keys are exactly the domain's objects, so a hit is the whole
        # check; a miss or an unhashable list runs the full check, which
        # raises ValueError or returns the object's canonical tuple
        try:
            return self._idx[obj]
        except (KeyError, TypeError):
            pass
        return self._idx[self._check(obj)]

    def unrank(self, index: int):
        self._check_index(index)
        return self._objs[index]

    def objects(self) -> Iterator:
        return iter(self._objs)


class EndoMap:
    """A self-map of a finite domain, tabulated as index -> index.

    The table is a tuple, or an ``array('I')`` (4 bytes per entry) for the
    large tables built level by level or from ranks; the map's iterates
    keep its table's type.
    """

    __slots__ = ("codec", "table")

    def __init__(self, codec: DomainCodec, table: tuple[int, ...] | array):
        self.codec = codec
        self.table = table
        self.__post_init__()

    def __post_init__(self):
        """Refuse a table that is not a self-map of the codec's domain; a
        method of its own, so a tracer can wrap the check."""
        n = self.codec.size
        if len(self.table) != n:
            raise ValueError(f"table length {len(self.table)} != domain size {n}")
        table = self.table
        # an unsigned typecode already rules out negative entries
        unsigned = isinstance(table, array) and table.typecode in "BHILQ"
        if table and ((not unsigned and min(table) < 0) or max(table) >= n):
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
        """Wrap a raw index table with a trivial codec; an array is kept as
        it is, any other iterable becomes a tuple."""
        if not isinstance(table, array):
            table = tuple(table)
        return cls(IndexDomain(len(table)), table)


class FiberHistogram:
    """Multiset of fiber sizes: counts[s] = number of points with |f^-1(y)| = s.

    Both sum_s counts[s] (points of the codomain) and sum_s s*counts[s]
    (points of the domain) equal the domain size, since size-0 fibers are
    included.  Two maps are pseudoconjugate when their histograms are equal.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: dict[int, int]):
        self.counts = counts

    def __eq__(self, other) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.counts == other.counts

    @classmethod
    def from_map(cls, f: EndoMap) -> "FiberHistogram":
        return cls.from_sizes(fiber_sizes(f.table))

    @classmethod
    def from_sizes(cls, sizes) -> "FiberHistogram":
        """Histogram of the fiber sizes of the image points, empty fibers
        optional: the domain size is sum s * c, since every point lies in one
        fiber, and the codomain points left out have empty fibers."""
        counts = Counter(sizes)
        counts[0] += sum(s * c for s, c in counts.items()) - sum(counts.values())
        return cls({s: c for s, c in sorted(counts.items()) if c})

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def degree(self) -> Fraction:
        return Fraction(sum(s * s * c for s, c in self.counts.items()), self.n)


def fiber_sizes(table) -> list[int]:
    """sizes[y] = |f^-1(y)| for an index table over 0..len(table)-1."""
    sizes = [0] * len(table)
    for v in table:
        sizes[v] += 1
    return sizes


def square_sum(sizes) -> int:
    """Sum of squared fiber sizes, for fibers counted by any means.

    sizes is iterated twice, so it must be a collection (a list or a dict
    values view), not an iterator.
    """
    return sum(map(mul, sizes, sizes))


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


# keys per itemgetter call when composing arrays: each call boxes its
# chunk's keys and images, about 35 MB at once for a 10^6-entry table; at
# 2^13 keys a chunk stays below 1 MB and a composition costs no more time
_COMPOSE_CHUNK = 1 << 13


def compose_tables(ft, gt) -> tuple[int, ...] | array:
    """The table of f after g, (ft[v] for v in gt), with the type of gt.

    A tuple (or any other sequence) gt gives a tuple, from one C-level
    call; an array gt gives an array of its typecode, filled chunk by chunk.
    """
    if isinstance(gt, array):
        out = array(gt.typecode)
        for i in range(0, len(gt), _COMPOSE_CHUNK):
            # a list chunk takes the tuple path below
            out.extend(compose_tables(ft, gt[i:i + _COMPOSE_CHUNK].tolist()))
        return out
    if len(gt) > 1:
        return itemgetter(*gt)(ft)
    # itemgetter returns a bare item for one key and needs at least one key
    return (ft[gt[0]],) if gt else ()


def iterate_table(table, k: int) -> tuple[int, ...] | array:
    """The table of the k-th iterate, k >= 0; k = 0 gives the identity.

    f^k is taken by repeated squaring, f^(2m) = f^m o f^m and
    f^(2m+1) = f o f^(2m), in bit_length(k) + popcount(k) - 2 compositions
    (k - 1 for k <= 3).  An array table gives an array of its typecode,
    any other gives a tuple; at k = 1 a tuple or array comes back as it is.
    """
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    if not isinstance(table, array):
        table = tuple(table)
    if k == 0:
        identity = range(len(table))
        if isinstance(table, array):
            return array(table.typecode, identity)
        return tuple(identity)
    out = table
    for bit in bin(k)[3:]:
        out = compose_tables(out, out)
        if bit == "1":
            out = compose_tables(table, out)
    return out


# ---------------------------------------------------------------------------
# lane kernels: many small tables per big-integer operation
#
# T tables of n points are packed into n Python ints, the columns: byte t of
# column x is entry x of table t, so one big-integer operation acts on all T
# tables at once ("SIMD within a register", Knuth, TAOCP 4A, 7.1.3).  With
# ONES = 0x01 in every byte, LOW = 0x7F * ONES and HIGH = 0x80 * ONES,
#     ((a ^ b) + LOW) & HIGH
# has bit 7 set in exactly the bytes where columns a and b differ; entries
# are below 128, so the addition never carries into the next byte.  The
# kernels take the entries as they are, without a range check, and refuse
# n > 23: a byte then counts the n(n-1)/2 <= 253 colliding pairs of a table.
# collisions, compose_tables and iterate_table are their per-table oracles.

_LANE_MAX_N = 23


def _lane_masks(n: int, lanes: int) -> tuple[int, int, int]:
    """ONES, LOW and HIGH for `lanes` tables of n points."""
    if n > _LANE_MAX_N:
        raise ValueError(f"lane kernels take n <= {_LANE_MAX_N} points, got {n}")
    ones = int.from_bytes(b"\x01" * lanes, "little")
    return ones, 0x7F * ones, 0x80 * ones


def lane_columns(data: bytes, n: int, stride: int, offset: int = 0) -> list[int]:
    """The n columns of the tables of n points at offset, offset + stride,
    ... in data, one byte per entry; column x is entry x of every table."""
    return [int.from_bytes(data[offset + x::stride], "little") for x in range(n)]


def lane_collisions(cols: list[int], lanes: int) -> list[int]:
    """collisions of each of the `lanes` tables packed in cols.

    S(t) = n^2 - 2 #{x < x' : t[x] != t[x']}; each pair of columns adds 1 to
    the bytes where the two differ.
    """
    n = len(cols)
    _, low, high = _lane_masks(n, lanes)
    unequal = 0
    for i, a in enumerate(cols):
        for b in cols[i + 1:]:
            unequal += (((a ^ b) + low) & high) >> 7
    # S for each count a byte can hold, at most n(n-1)/2, read back per
    # lane by one C-level map
    sums = [n * n - 2 * c for c in range(n * (n - 1) // 2 + 1)]
    return list(map(sums.__getitem__, unequal.to_bytes(lanes, "little")))


def lane_compose(fcols: list[int], gcols: list[int], lanes: int) -> list[int]:
    """Columns of f after g in every lane: column x of f o g is f's column y
    in the bytes where g's column x holds y, for each y < n."""
    ones, low, high = _lane_masks(len(fcols), lanes)
    keys = [y * ones for y in range(len(fcols))]
    out = []
    for gx in gcols:
        col = 0
        for fy, key in zip(fcols, keys):
            # 0x80 in the bytes where gx holds y, then 0x7F there, which
            # keeps every entry below 128
            equal = ~((gx ^ key) + low) & high
            col |= fy & (equal - (equal >> 7))
        out.append(col)
    return out


def lane_iterate(cols: list[int], k: int, lanes: int) -> list[int]:
    """Columns of the k-th iterate in every lane, k >= 1, by repeated
    squaring as iterate_table takes it."""
    if k < 1:
        raise ValueError("lane iterate order must be >= 1")
    out = cols
    for bit in bin(k)[3:]:
        out = lane_compose(out, out, lanes)
        if bit == "1":
            out = lane_compose(cols, out, lanes)
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


def frac_str(x: Fraction) -> str:
    """An exact rational as "p/q", integers included ("6/1")."""
    return f"{x.numerator}/{x.denominator}"


def dec_str(x) -> str:
    """A display-only decimal at 12 significant digits."""
    return format(float(x), ".12g")
