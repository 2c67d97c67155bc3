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

import itertools
import sys
from array import array
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator


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
        return cls.from_table(f.table)

    @classmethod
    def from_table(cls, table) -> "FiberHistogram":
        return cls.from_counts(fiber_counts(table, len(table)))

    @classmethod
    def from_sizes(cls, sizes) -> "FiberHistogram":
        """Histogram of the fiber sizes of the image points, empty fibers
        optional."""
        return cls.from_counts(Counter(sizes))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "FiberHistogram":
        """Histogram of a count of points by fiber size, empty fibers
        optional: the domain size is sum s * c, since every point lies in one
        fiber, and the codomain points left out have empty fibers."""
        counts = Counter(counts)
        counts[0] += sum(s * c for s, c in counts.items()) - sum(counts.values())
        return cls({s: c for s, c in sorted(counts.items()) if c})

    @property
    def n(self) -> int:
        return sum(self.counts.values())

    def degree(self) -> Fraction:
        return Fraction(_pairs(self.counts), self.n)


def fiber_sizes(table) -> list[int]:
    """sizes[y] = |f^-1(y)| for an index table over 0..len(table)-1.

    A list slot per point; ``fiber_counts`` counts in a byte per point
    where only the histogram is read.
    """
    sizes = [0] * len(table)
    for v in table:
        sizes[v] += 1
    return sizes


def fiber_counts(images: Iterable[int], n: int) -> dict[int, int]:
    """counts[s] = number of points y of 0..n-1 hit by exactly s of the
    images, empty fibers (s = 0) included.

    Each point's count is kept mod 256 in a byte, and a dict counts how
    often it wrapped, so the count holds one byte per point plus one entry
    per fiber of more than 255 points.  images may be any iterable of
    points, an iterator too.
    """
    low = bytearray(n)
    wraps: dict[int, int] = {}
    for v in images:
        try:
            low[v] += 1
        except ValueError:  # a byte holds at most 255
            low[v] = 0
            wraps[v] = wraps.get(v, 0) + 1
    counts = {s: low.count(s) for s in set(low)}
    for v, w in wraps.items():
        s = low[v]
        counts[s] -= 1
        if not counts[s]:
            del counts[s]
        s += w << 8
        counts[s] = counts.get(s, 0) + 1
    return counts


def _pairs(counts: dict[int, int]) -> int:
    """Ordered pairs within a fiber, sum s^2 c over a count by fiber size."""
    return sum(s * s * c for s, c in counts.items())


def collisions(table) -> int:
    """Ordered pairs (x, x') with table[x] == table[x'].

    This is the sum of squared fiber sizes, n * deg(f), as an exact integer.
    """
    return _pairs(fiber_counts(table, len(table)))


def iterate_collisions(table, k: int) -> int:
    """collisions(iterate_table(table, k)), k >= 0, without storing the
    table of f^k: the last composition of the repeated squaring is counted
    chunk by chunk as it is composed."""
    if k < 2:
        return collisions(iterate_table(table, k))
    images = itertools.chain.from_iterable(
        _compose_chunks(*_last_composition(_as_table(table), k)))
    return _pairs(fiber_counts(images, len(table)))


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
    call; an array gt gives an array of its typecode, allocated at once
    and filled chunk by chunk, so no chunk moves it.
    """
    if isinstance(gt, array):
        code = gt.typecode
        out = array(code, [0]) * len(gt)
        for i, chunk in zip(range(0, len(gt), _COMPOSE_CHUNK),
                            _compose_chunks(ft, gt)):
            out[i:i + _COMPOSE_CHUNK] = array(code, chunk)
        return out
    if len(gt) > 1:
        return itemgetter(*gt)(ft)
    # itemgetter returns a bare item for one key and needs at least one key
    return (ft[gt[0]],) if gt else ()


def _compose_chunks(ft, gt) -> Iterator[tuple[int, ...]]:
    """f after g as tuples of up to _COMPOSE_CHUNK images, in order."""
    for i in range(0, len(gt), _COMPOSE_CHUNK):
        yield compose_tables(ft, tuple(gt[i:i + _COMPOSE_CHUNK]))


def _as_table(table) -> tuple[int, ...] | array:
    return table if isinstance(table, array) else tuple(table)


def iterate_table(table, k: int) -> tuple[int, ...] | array:
    """The table of the k-th iterate, k >= 0; k = 0 gives the identity.

    f^k is taken by repeated squaring, f^(2m) = f^m o f^m and
    f^(2m+1) = f o f^(2m), in bit_length(k) + popcount(k) - 2 compositions
    (k - 1 for k <= 3).  An array table gives an array of its typecode,
    any other gives a tuple; at k = 1 a tuple or array comes back as it is.
    """
    if k < 0:
        raise ValueError("iterate order must be nonnegative")
    table = _as_table(table)
    if k == 0:
        identity = range(len(table))
        if isinstance(table, array):
            return array(table.typecode, identity)
        return tuple(identity)
    if k == 1:
        return table
    return compose_tables(*_last_composition(table, k))


def _squarings(k: int) -> list[bool]:
    """The compositions that take f to f^k, k >= 1, by repeated squaring:
    False squares the power so far, True applies f after it."""
    # each bit after the leading one squares, and a 1 bit then applies f
    return [with_f for bit in bin(k)[3:]
            for with_f in ((False, True) if bit == "1" else (False,))]


def _last_composition(table, k: int) -> tuple:
    """(f^j, g) with f^j o g = f^k, k >= 2: every composition of the
    repeated squaring but the last, which is left to the caller."""
    *steps, last = _squarings(k)
    out = table
    for with_f in steps:
        out = compose_tables(table if with_f else out, out)
    return (table if last else out), out


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
    for with_f in _squarings(k):
        out = lane_compose(cols if with_f else out, out, lanes)
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
