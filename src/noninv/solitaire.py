"""Bulgarian solitaire on partitions and Carolina solitaire on compositions.

Bulgarian solitaire removes one unit from every pile and stacks the removed
units as a new pile.  The fiber of a partition with ell parts counts its
distinct part values that are at least ell - 1, the image is the set of
partitions of rank >= -1, and no fiber of Part(n) exceeds
floor((1 + sqrt(8n/3 + 1))/2).

Carolina solitaire is the ordered variant on compositions: prepend the
number of parts, decrement every original part, drop zeros.  A composition
with first part c_1 and ell parts has exactly binom(c_1, ell-1) preimages,
which makes the degree on Comp(n) equal to eta_n / 2^(n-1), where eta_n is
the coefficient series of (1 - x)/sqrt(1 - 4x + 4x^2 - 4x^3 + 4x^4).
The series comes from the linear recurrence of the inverse square root, in
exact integers with O(N) steps.

Uniform random partitions come from Nijenhuis and Wilf's RANPAR, which
draws with exact integer weights from the partition numbers p(0..n) and the
divisor sums sigma(1..n) alone, so sampled statistics carry no
distributional bias and memory stays linear in n.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import lshift, mod, or_
from typing import Iterator, Sequence

from .endo import DomainCodec, EndoMap, EnumeratedDomain, FiberHistogram

Partition = tuple[int, ...]
Composition = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions


def check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if not all(isinstance(p, int) and p >= 1 for p in lam):
        raise ValueError(f"parts must be positive integers: {lam!r}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"parts must be weakly decreasing: {lam!r}")
    return lam


def partitions_desc(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first, in reverse lexicographic order.

    Knuth's Algorithm P (TAOCP 4A, 7.2.1.4) steps from each partition to
    the next in place.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        yield ()
        return
    # a[1..m] is the partition and a[q] its last part above 1; a[0] = 0
    # stops the search for that part once only ones are left
    a = [0] * (n + 1)
    m, rest, x = 1, n, n
    while True:
        # fill with copies of x, then the remainder as the final part
        while rest > x:
            a[m] = x
            m += 1
            rest -= x
        a[m] = rest
        q = m - (rest == 1)
        while True:
            yield tuple(a[1:m + 1])
            if a[q] != 2:
                break
            # a final 2 becomes 1 + 1
            a[q] = 1
            q -= 1
            m += 1
            a[m] = 1
        if q == 0:
            return
        # decrease a[q] and refill everything after it
        x = a[q] - 1
        a[q] = x
        rest = m - q + 1
        m = q + 1


# the largest Part(n) the codec and the fiber count enumerate: `degree
# bulgarian --n 65 --force` (p(65) = 2,012,558 partitions, counted by
# bulgarian_fibers) takes 1.0-1.1 s and peaks at 50 MB, with 135,826 keys
# in its largest image class, on 2 cores, Python 3.11; its image keys are
# exact ints, so no part size bounds them
_PARTITION_HARD_LIMIT = 65


def _check_partition_size(n: int) -> None:
    if n < 1:
        raise ValueError("partitions of n need n >= 1")
    if n > _PARTITION_HARD_LIMIT:
        raise ValueError(f"Part({n}) exceeds the enumeration limit "
                         f"n <= {_PARTITION_HARD_LIMIT}")


class PartitionDomain(EnumeratedDomain):
    """Part(n) with ranks in reverse lexicographic order."""

    def __init__(self, n: int):
        _check_partition_size(n)
        self.n = n
        super().__init__(list(partitions_desc(n)))

    def _check(self, obj) -> Partition:
        lam = check_partition(obj)
        if sum(lam) != self.n:
            raise ValueError(f"not a partition of {self.n}: {lam!r}")
        return lam


@lru_cache(maxsize=1)
def partition_domain(n: int) -> PartitionDomain:
    """The Part(n) codec; only the latest is kept, as for S_n."""
    return PartitionDomain(n)


def bulgarian(lam: Sequence[int]) -> Partition:
    """One Bulgarian solitaire move: decrement piles, add a pile of size ell."""
    return _bulgarian(check_partition(lam))


def _bulgarian(lam: Partition) -> Partition:
    if not lam:
        return ()
    parts = [p - 1 for p in lam if p >= 2]
    parts.append(len(lam))
    parts.sort(reverse=True)
    return tuple(parts)


def _preimage_count(lam: Partition) -> int:
    ell = len(lam)
    return len({p for p in lam if p >= ell - 1})


def bulgarian_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(partition_domain(n), _bulgarian)


def _key_radices(n: int) -> tuple[int, int]:
    """R = n + 1 and Q = (n^2 + 1) R, the radices of a ``_part_keys`` key."""
    r = n + 1
    return r, (n * n + 1) * r


def _part_keys(n: int) -> list[int]:
    """The additive image keys of Part(n): pl[v] for each part value v.

    With R and Q from ``_key_radices`` and P_v = prod_{u < v}
    (floor(n/u) + 1), pl[v] is P_v Q + v R + 1 and pl[0] is 0, and a
    key is the sum of pl over its parts.  The key mod Q is the sum of the
    parts times R plus their number: exact for any at most n parts from
    1..n, whose sum is at most n^2.  P is a mixed radix, and a partition of
    n has at most floor(n/u) parts equal to u, so the digits never carry:
    the key is injective on Part(n), and its largest part is the number of
    pl[1..n] at most the key.
    """
    r, q = _key_radices(n)
    pl, place = [0], 1
    for v in range(1, n + 1):
        pl.append(place * q + v * r + 1)
        place *= n // v + 1
    return pl


def _bulgarian_classes(n: int, runs: list[int]) -> Iterator[Counter]:
    """The ``_part_keys`` keys of the images B(lam), lam in Part(n), counted
    one class at a time: a Counter of key -> fiber size per class.

    With nu = (lam_i - 1 : lam_i >= 2), q = len(nu) and |nu| + q <= n,
    lam <-> nu is a bijection, and B(lam) = nu + (n - |nu|,) has q + 1
    parts, since lam has n - |nu| parts.  Images of different q never
    collide, so class q holds whole fibers.  Its tails nu_q <= ... <=
    nu_2, of sum t, are built smallest part first, each with s = sum pl
    over its parts; nu_1 then sweeps [nu_2, n - q - t], and
    key(B(lam)) = s + pl[nu_1] + pl[n - t - nu_1], one C-level map per
    tail.  The class q = 0 is 1^n -> (n).  As lam has largest part
    nu_1 + 1 and n - t - nu_1 parts, each sweep is a run over nu_1 of the
    difference array runs, at t (n + 1) + nu_1; 1^n sits at nu_1 = t = 0.
    """
    pl = _part_keys(n)
    r = n + 1
    runs[0] += 1
    runs[1] -= 1
    yield Counter([pl[n]])
    # ends[t][v] = pl[v] + pl[n - t - v]: the keys of nu_1 = v and of the
    # image's last part, behind a tail of sum t
    ends = [[pl[v] + pl[n - t - v] for v in range(n - t + 1)]
            for t in range(n + 1)]

    def sweeps(q, tails, longer):
        """One key map per tail of class q; the tails of class q + 1 go to
        longer, three parallel lists (s, t, nu_2) of ints, untracked by
        the garbage collector."""
        sums, totals, tops = longer
        for s, t, top in zip(*tails):
            last = n - q - t
            yield map(s.__add__, ends[t][top:last + 1])
            runs[t * r + top] += 1
            runs[t * r + last + 1] -= 1
            # a new largest tail part v leaves nu_1 >= v room: t + 2v <=
            # n - q - 1
            most = (last - 1) // 2
            if most >= top:
                sums.extend(map(s.__add__, pl[top:most + 1]))
                totals.extend(range(t + top, t + most + 1))
                tops.extend(range(top, most + 1))

    # class 1 has one tail, the empty one, with nu_1 >= 1
    tails, q = ([0], [0], [1]), 1
    while tails[0]:
        longer = [], [], []
        yield Counter(itertools.chain.from_iterable(sweeps(q, tails, longer)))
        tails, q = longer, q + 1


def _decode(n: int, keys) -> Counter:
    """Counter of (largest part, sum R + number of parts) over keys.

    The largest part is the number of pl[1..n] at most the key, and the
    key mod Q is the sum of its parts times R plus their number.
    """
    _, q = _key_radices(n)
    largest = map(bisect_right, itertools.repeat(_part_keys(n)[1:]), keys)
    return Counter(zip(largest, map(mod, keys, itertools.repeat(q))))


def bulgarian_fibers(n: int) -> tuple[FiberHistogram, Counter, dict]:
    """Fiber histogram of Bulgarian solitaire on Part(n), its decoded
    image, and Part(n)'s shapes.

    ``_bulgarian_classes`` counts the images one length class at a time,
    with no tuple, sort or bytes built for any point, and no domain list,
    rank dictionary or table; each class is folded into the histogram and
    decoded by ``_decode``, then dropped.  The third value maps (largest
    part, length) to the number of partitions of n with that shape; the
    second and third are what ``bulgarian_image_defects`` reads.
    """
    _check_partition_size(n)
    r = n + 1
    runs = [0] * (r * r + 1)
    sizes, image = Counter(), Counter()
    for keys in _bulgarian_classes(n, runs):
        sizes.update(keys.values())
        image.update(_decode(n, keys))
    shapes = {}
    for i, c in enumerate(itertools.accumulate(runs)):
        if c:
            t, top = divmod(i, r)
            shapes[top + 1, n - t - top] = c
    return FiberHistogram.from_counts(sizes), image, shapes


def _rank(largest: int, length: int) -> int:
    return largest - length


def _split_by_rank(shapes: dict) -> tuple[int, int]:
    """Points of rank >= -1 and of rank < -1 in a count keyed by shape."""
    high = sum(c for (big, ell), c in shapes.items() if _rank(big, ell) >= -1)
    return high, sum(shapes.values()) - high


def bulgarian_image_defects(n: int, image: Counter,
                            shapes: dict) -> tuple[int, int]:
    """Image points of rank < -1 and rank >= -1 points outside the image.

    image and shapes are ``bulgarian_fibers(n)``'s; (0, 0) certifies that
    the image keys are exactly the partitions of n of rank >= -1.  image
    counts the keys by their ``_decode``: largest part, and the sum and
    number of parts.  A key whose parts do not sum to n is outside; the
    others are partitions of n, split by rank through ``_rank``, so the
    missed ones number the domain's partitions of rank >= -1 less the keys
    of rank >= -1.
    """
    r = n + 1
    own, off_sum = {}, 0
    for (big, low), c in image.items():
        total, ell = divmod(low, r)
        if total == n:
            own[big, ell] = c
        else:
            off_sum += c
    high, outside = _split_by_rank(own)
    return outside + off_sum, _split_by_rank(shapes)[0] - high


def bulgarian_degree(n: int) -> Fraction:
    """Exact degree on Part(n); also certifies image = {rank >= -1}."""
    hist, image, shapes = bulgarian_fibers(n)
    if bulgarian_image_defects(n, image, shapes) != (0, 0):
        raise RuntimeError(f"image of Part({n}) is not the rank >= -1 set")
    return hist.degree()


def max_preimage_bound(n: int) -> int:
    """Largest w with 3w(w-1)/2 <= n, i.e. floor((1 + sqrt(8n/3 + 1))/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (3 + isqrt(24 * n + 9)) // 6


# ---------------------------------------------------------------------------
# uniform random partitions


# entries of all guide rows of one PartitionSampler, 2 bytes each.  1000
# draws at n = 3000 take 0.92 s with no rows, 0.45 s at 2^18 entries and
# 0.43 s at 2^19 (uncapped, they reach 430,792), while the `sample` child
# peaks at 17.0-17.2 MB at 2^18 against 17.6-17.8 MB at 2^19 and 16.0 MB
# with no rows (2 cores, Python 3.11).  Once it is spent, no row grows and
# draws past a row's end sum exactly from there
_GUIDE_BUDGET = 1 << 18


class PartitionSampler:
    """Exact uniform sampler over Part(n): Nijenhuis and Wilf's RANPAR.

    Keeps p(0..n) and sigma(1..n), the partition numbers and divisor sums.
    The identity m p(m) = sum_k sigma(k) p(m - k) splits the partitions of
    m, each counted m times, into pairs (d, j) with j d <= m and weight
    d p(m - j d).  One step draws k = j d with weight sigma(k) p(m - k),
    then a divisor d of k with weight d, emits j = k / d parts equal to d
    and continues with m - k.  Every partition of n comes out with
    probability exactly 1/p(n).

    With r = randrange(m p(m)), k is the least k whose prefix weight
    W_m(k) = sum_{i <= k} sigma(i) p(m - i) exceeds r.  A guide row per m,
    built as draws reach it, holds the top bits W_m(k) >> s_m of the
    prefixes k = 1..L, with s_m = max(0, bit length of m p(m) - 16) so
    that each fits 16 bits, beside the exact W_m(L).  One bisect of
    r >> s_m then gives k exactly, unless r's top bits tie with an entry
    (an exact scan from k = 1 decides) or pass the row (the exact scan goes
    on from W_m(L) and extends the row).  The rows hold at most
    _GUIDE_BUDGET entries in all, and d is drawn by a walk over the
    divisors of k, cached per k, so memory is O(n) words plus the entry
    budget.  Every rng call, k and d is that of the plain scans.  Both
    draws of a step call ``getrandbits`` as ``randrange`` does, with the
    bound's bit length, redrawing while the value is at or above the
    bound, and skip randrange's argument handling.

    The tables are kept as the lists ``p`` (p[m] for 0 <= m <= n) and
    ``sigma`` (sigma[k] for 1 <= k <= n, with sigma[0] = 0).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        # generalized pentagonal numbers k(3k -+ 1)/2 with Euler's sign
        pentagonal = []
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            pentagonal.append((k * (3 * k - 1) // 2, sign))
            pentagonal.append((k * (3 * k + 1) // 2, sign))
            k += 1
        p = [1] + [0] * n
        for m in range(1, n + 1):
            t = 0
            for off, sign in pentagonal:
                if off > m:
                    break
                if sign > 0:
                    t += p[m - off]
                else:
                    t -= p[m - off]
            p[m] = t
        sigma = [0] * (n + 1)
        for d in range(1, n + 1):
            for multiple in range(d, n + 1, d):
                sigma[multiple] += d
        self.p = p
        self.sigma = sigma
        # the guide row of each m and the exact W_m at its last entry, and
        # the divisors of each k drawn so far; a row is replaced, never
        # changed in place, so every m can start from one empty row
        self._rows = [array("H")] * (n + 1)
        self._ends = [0] * (n + 1)
        self._budget = _GUIDE_BUDGET
        self._divisors = {}

    def sample(self, rng: random.Random) -> Partition:
        p, sigma = self.p, self.sigma
        rows, divisors = self._rows, self._divisors
        getrandbits = rng.getrandbits
        parts = []
        m = self.n
        while m > 0:
            total = m * p[m]
            bits = total.bit_length()
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            shift = max(0, bits - 16)
            row = rows[m]
            top = r >> shift
            i = bisect_left(row, top)
            if i < len(row) and row[i] > top:
                # W_m(i) <= r < W_m(i + 1): their top bits are below and
                # above r's
                k = i + 1
            else:
                k = self._scan(m, r, shift, i < len(row))
            total = sigma[k]
            bits = total.bit_length()
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            for d in divisors.get(k) or self._divisors_of(k):
                r -= d
                if r < 0:
                    break
            parts.extend([d] * (k // d))
            m -= k
        parts.sort(reverse=True)
        return tuple(parts)

    def _scan(self, m: int, r: int, shift: int, tie: bool) -> int:
        """The least k with W_m(k) > r, by exact prefix sums.

        On a tie r's top bits equal an entry of m's row, so the sum starts
        at k = 0; otherwise every entry is below them, and it starts at the
        row's end and extends the row while the budget lasts.
        """
        p, sigma = self.p, self.sigma
        if tie:
            k, w = 0, 0
        else:
            row = self._rows[m]
            k, w = len(row), self._ends[m]
            stop = k + self._budget
            entries = []
            while w <= r and k < stop:
                k += 1
                w += sigma[k] * p[m - k]
                entries.append(w >> shift)
            if entries:
                # a new row of exactly its length
                self._rows[m] = row + array("H", entries)
                self._ends[m] = w
                self._budget = stop - k
        while w <= r:
            k += 1
            w += sigma[k] * p[m - k]
        return k

    def _divisors_of(self, k: int) -> list[int]:
        """The divisors of k in increasing order, cached per k."""
        low = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
        high = [k // d for d in reversed(low) if d * d != k]
        self._divisors[k] = low + high
        return self._divisors[k]


@lru_cache(maxsize=4)
def _sampler(n: int) -> PartitionSampler:
    return PartitionSampler(n)


def monte_carlo_bulgarian(n: int, samples: int,
                          rng_seed: int) -> tuple[float, float]:
    """Mean and sample stddev of |B^{-1}(B(lam))| over uniform lam in Part(n)."""
    import statistics  # imported here, so a CLI child that never samples skips it

    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(rng_seed)
    sampler = _sampler(n)
    # the sampler's own partitions need no input check
    vals = [_preimage_count(_bulgarian(sampler.sample(rng)))
            for _ in range(samples)]
    mean = statistics.fmean(vals)
    stddev = statistics.stdev(vals) if samples > 1 else 0.0
    return mean, stddev


# ---------------------------------------------------------------------------
# compositions


def check_composition(c: Sequence[int]) -> Composition:
    c = tuple(c)
    if not all(isinstance(p, int) and p >= 1 for p in c):
        raise ValueError(f"parts must be positive integers: {c!r}")
    return c


# the largest Comp(n) the codec and the rank kernel tabulate: `degree
# carolina --n 24 --force` (2^23 compositions, from carolina_rank_table)
# takes 2.0-2.7 s and peaks at 84 MB on 2 cores, Python 3.11; tabulating
# carolina_endomap(24) takes 45 s and 405 MB
_COMPOSITION_HARD_LIMIT = 24


def _check_composition_size(n: int) -> None:
    """Refuse a Comp(n) above _COMPOSITION_HARD_LIMIT before it is built."""
    if n > _COMPOSITION_HARD_LIMIT:
        raise ValueError(f"Comp({n}) exceeds the enumeration limit "
                         f"n <= {_COMPOSITION_HARD_LIMIT}")


class CompositionDomain(DomainCodec):
    """Comp(n) ranked by the bitmask of cut positions between units."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("compositions of n need n >= 1")
        _check_composition_size(n)
        self.n = n

    @property
    def size(self) -> int:
        return 1 << (self.n - 1)

    def rank(self, c: Composition) -> int:
        c = check_composition(c)
        if sum(c) != self.n:
            raise ValueError(f"not a composition of {self.n}: {c!r}")
        mask = 0
        pos = 0
        for part in c[:-1]:
            pos += part
            mask |= 1 << (pos - 1)
        return mask

    def unrank(self, r: int) -> Composition:
        self._check_index(r)
        parts = []
        last = 0
        for i in range(self.n - 1):
            if (r >> i) & 1:
                parts.append(i + 1 - last)
                last = i + 1
        parts.append(self.n - last)
        return tuple(parts)

    def objects(self) -> Iterator[Composition]:
        return _compositions(self.n)


def _compositions(n: int) -> Iterator[Composition]:
    # Comp(n) in rank order: mask 2r + b is the composition of mask r on
    # n - 1 units with a unit prepended, split off as a part when b = 1
    if n == 1:
        yield (1,)
        return
    for c in _compositions(n - 1):
        yield (c[0] + 1,) + c[1:]
        yield (1,) + c


def carolina(c: Sequence[int]) -> Composition:
    """One Carolina move: prepend ell, decrement each part, drop zeros."""
    return _carolina(check_composition(c))


def _carolina(c: Composition) -> Composition:
    if not c:
        return ()
    out = [len(c)] + [p - 1 for p in c]
    return tuple(p for p in out if p > 0)


def carolina_endomap(n: int) -> EndoMap:
    return EndoMap.from_function(CompositionDomain(n), _carolina)


def carolina_rank_table(n: int) -> array:
    """The index table of Carolina solitaire on Comp(n), from ranks alone.

    Lemma.  Let T_m be the table on Comp(m), so T_1 = [0] and T_2 = [1, 0]
    ((2) -> (1, 1) and (1, 1) -> (2)).  For m >= 3 and q = 2^(m-3):

    * T_m[2^(m-2) + y] = 2 T_(m-1)[y];
    * T_m[x] = T_(m-1)[x] for x < q;
    * T_m[x] = T_(m-1)[x] | 2^(m-2) for q <= x < 2^(m-2).

    Proof sketch.  Bit m-2 of a rank is the cut before the last unit.  If
    it is set, c is c' followed by a part 1, with c' of rank y in
    Comp(m-1); the move prepends ell(c') + 1 instead of ell(c') and drops
    the last part's 0, so the image is that of c' with its first part one
    larger, and every cut moves up one place.  Otherwise c is c' (same
    rank x) with its last part one larger.  When that part of c' exceeds 1
    (bit m-3 of x clear), the image's last part grows and no cut moves;
    when it is 1, its dropped 0 becomes a final part 1 of the image, which
    adds the cut at m - 1.

    Each level is three C-level passes over the one before, and the table
    takes 4 bytes per entry.  Equals ``carolina_endomap(n).table``.
    """
    if n < 1:
        raise ValueError(f"Comp({n}) is outside the tabulation range "
                         f"1 <= n <= {_COMPOSITION_HARD_LIMIT}")
    _check_composition_size(n)
    table = array("I", [0] if n == 1 else [1, 0])
    for m in range(3, n + 1):
        prev, q = table, 1 << (m - 3)
        table = prev[:q]
        table.extend(map(or_, prev[q:], itertools.repeat(1 << (m - 2))))
        table.extend(map(lshift, prev, itertools.repeat(1)))
    return table


# ---------------------------------------------------------------------------
# the eta series and the exact Carolina degree


# Q(x) = 1 - 4x + 4x^2 - 4x^3 + 4x^4, lowest coefficient first; the
# recurrence in eta_series needs the constant term 1
_ETA_Q = (1, -4, 4, -4, 4)


def eta_series(N: int) -> list[int]:
    """Integer coefficients of (1-x)/sqrt(1 - 4x + 4x^2 - 4x^3 + 4x^4).

    y = Q^(-1/2) satisfies 2 Q y' + Q' y = 0, whose coefficient of x^(M-1)
    is the recurrence 2M y_M = -sum_{i=1..min(4,M)} q_i (2M - i) y_{M-i}
    (Stanley, EC2 6.4), and eta_M = y_M - y_{M-1}.  Every step is one exact
    integer division whose remainder must be zero, so a wrong expansion
    raises ArithmeticError instead of passing silently.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    q = _ETA_Q[1:]
    y = [1]
    for M in range(1, N + 1):
        s = 0
        for i, qi in enumerate(q[:M], 1):
            s -= qi * (2 * M - i) * y[M - i]
        yM, rem = divmod(s, 2 * M)
        if rem:
            raise ArithmeticError(f"coefficient {M} of Q^(-1/2) is not an "
                                  f"integer: {Fraction(s, 2 * M)}")
        y.append(yM)
    return y[:1] + [b - a for a, b in zip(y, y[1:])]


def carolina_degree(n: int) -> Fraction:
    """Exact degree on Comp(n) via the fiber-count double sum.

    Groups compositions by first part c_1 and length ell; each contributes
    binom(n-c_1-1, ell-2) * binom(c_1, ell-1)^2 ordered collision pairs.
    The single-part composition (n) is the ell = 1 boundary term and is
    added explicitly as 1.  Both binomials roll along ell with one multiply
    and one exact divide each, and ell stops where binom(c_1, ell-1) is 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1
    for c1 in range(1, n):
        m = n - c1 - 1
        # a = binom(m, j) and b = binom(c1, j + 1) at j = ell - 2
        a, b = 1, c1
        for j in range(min(m, c1 - 1) + 1):
            total += a * b * b
            a = a * (m - j) // (j + 1)
            b = b * (c1 - 1 - j) // (j + 2)
    return Fraction(total, 1 << (n - 1))
