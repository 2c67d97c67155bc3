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

Uniform random partitions come from Nijenhuis and Wilf's RANPAR, which
draws with exact integer weights from the partition numbers p(0..n) and the
divisor sums sigma(1..n) alone, so sampled statistics carry no
distributional bias and memory stays linear in n.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from typing import Iterator, Sequence

from .endo import DomainCodec, EndoMap, degree

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


def partitions_desc(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in reverse lexicographic order.

    With ``max_part`` only the partitions whose parts are all at most
    max_part, in the same order.  Knuth's Algorithm P (TAOCP 4A, 7.2.1.4)
    steps from each partition to the next in place.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    if max_part < 1:
        return
    if max_part == 1:
        yield (1,) * n
        return
    # a[1..m] is the partition and a[q] its last part above 1; a[0] = 0
    # stops the search for that part once only ones are left
    a = [0] * (n + 1)
    m, rest, x = 1, n, min(n, max_part)
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


class PartitionDomain(DomainCodec):
    """Materialized Part(n) with ranks in reverse lexicographic order."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("partitions of n need n >= 1")
        self.n = n
        self._objs = list(partitions_desc(n))
        self._index = {lam: i for i, lam in enumerate(self._objs)}

    @property
    def size(self) -> int:
        return len(self._objs)

    def rank(self, lam: Partition) -> int:
        # the keys are exactly the partitions of n, so a hit is the whole check
        try:
            return self._index[tuple(lam)]
        except KeyError:
            raise ValueError(f"not a partition of {self.n}: {lam!r}") from None

    def unrank(self, r: int) -> Partition:
        self._check_index(r)
        return self._objs[r]

    def objects(self) -> Iterator[Partition]:
        return iter(self._objs)


@lru_cache(maxsize=None)
def partition_domain(n: int) -> PartitionDomain:
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


def bulgarian_preimage_count(lam: Sequence[int]) -> int:
    """Number of preimages: distinct part values that are >= ell - 1."""
    lam = check_partition(lam)
    ell = len(lam)
    return len({p for p in lam if p >= ell - 1})


def partition_rank(lam: Sequence[int]) -> int:
    """Largest part minus number of parts."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("rank needs a nonempty partition")
    return _rank(lam)


def _rank(lam: Partition) -> int:
    return lam[0] - len(lam)


def conjugate(lam: Sequence[int]) -> Partition:
    """Transpose the Young diagram."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


_PARTITION_LIMIT = 50


def bulgarian_endomap(n: int, limit: int = _PARTITION_LIMIT) -> EndoMap:
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the exhaustive limit {limit}; "
            f"pass limit={n} explicitly to enumerate Part({n})"
        )
    return EndoMap.from_function(partition_domain(n), _bulgarian)


def bulgarian_image_defects(f: EndoMap) -> tuple[int, int]:
    """Image points of rank < -1 and rank >= -1 points outside the image.

    f is the Bulgarian map on Part(n); (0, 0) certifies that its image is
    exactly the set of partitions of rank >= -1.
    """
    image = set(f.table)
    expected = {i for i, lam in enumerate(f.codec.objects()) if _rank(lam) >= -1}
    return len(image - expected), len(expected - image)


def bulgarian_degree(n: int, limit: int = _PARTITION_LIMIT) -> Fraction:
    """Exact degree on Part(n); also certifies image = {rank >= -1}."""
    f = bulgarian_endomap(n, limit=limit)
    if bulgarian_image_defects(f) != (0, 0):
        raise RuntimeError(f"image of Part({n}) is not the rank >= -1 set")
    return degree(f)


def max_preimage_bound(n: int) -> int:
    """Largest w with 3w(w-1)/2 <= n, i.e. floor((1 + sqrt(8n/3 + 1))/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (3 + isqrt(24 * n + 9)) // 6


# ---------------------------------------------------------------------------
# uniform random partitions


class PartitionSampler:
    """Exact uniform sampler over Part(n): Nijenhuis and Wilf's RANPAR.

    Keeps only p(0..n) and sigma(1..n), the partition numbers and divisor
    sums, so memory is O(n) big integers.  The identity
    m p(m) = sum_k sigma(k) p(m - k) splits the partitions of m, each counted
    m times, into pairs (d, j) with j d <= m and weight d p(m - j d).  One
    step draws k = j d with weight sigma(k) p(m - k), then a divisor d of k
    with weight d, emits j = k / d parts equal to d and continues with
    m - k.  Every partition of n comes out with probability exactly 1/p(n).
    The scans for k run n iterations per draw in total, and the scans for d
    at most n more.

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

    @property
    def total(self) -> int:
        return self.p[self.n]

    def sample(self, rng: random.Random) -> Partition:
        p, sigma = self.p, self.sigma
        parts = []
        m = self.n
        while m > 0:
            r = rng.randrange(m * p[m])
            k = 0
            while r >= 0:
                k += 1
                r -= sigma[k] * p[m - k]
            r = rng.randrange(sigma[k])
            d = 0
            while r >= 0:
                d += 1
                if k % d == 0:
                    r -= d
            parts.extend([d] * (k // d))
            m -= k
        parts.sort(reverse=True)
        return tuple(parts)


@lru_cache(maxsize=4)
def _sampler(n: int) -> PartitionSampler:
    return PartitionSampler(n)


def random_partition(n: int, rng_seed: int) -> Partition:
    """One uniform draw from Part(n), deterministic per seed."""
    return _sampler(n).sample(random.Random(rng_seed))


def monte_carlo_bulgarian(n: int, samples: int,
                          rng_seed: int) -> tuple[float, float]:
    """Mean and sample stddev of |B^{-1}(B(lam))| over uniform lam in Part(n)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(rng_seed)
    sampler = _sampler(n)
    vals = [bulgarian_preimage_count(bulgarian(sampler.sample(rng)))
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


class CompositionDomain(DomainCodec):
    """Comp(n) ranked by the bitmask of cut positions between units."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("compositions of n need n >= 1")
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


def carolina_preimage_count(c: Sequence[int]) -> int:
    c = check_composition(c)
    return comb(c[0], len(c) - 1)


def carolina_preimages(c: Sequence[int]) -> list[Composition]:
    """All preimages: the parts c_2+1, ..., c_ell+1 kept in order, with
    c_1 - (ell - 1) ones interleaved."""
    c = check_composition(c)
    ell = len(c)
    if c[0] < ell - 1:
        return []
    big = [p + 1 for p in c[1:]]
    out = []
    for pos in itertools.combinations(range(c[0]), ell - 1):
        parts = [1] * c[0]
        for slot, val in zip(pos, big):
            parts[slot] = val
        out.append(tuple(parts))
    return out


_COMPOSITION_LIMIT = 20


def carolina_endomap(n: int, limit: int = _COMPOSITION_LIMIT) -> EndoMap:
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the exhaustive limit {limit}; "
            f"pass limit={n} explicitly to enumerate 2^{n - 1} compositions"
        )
    return EndoMap.from_function(CompositionDomain(n), _carolina)


# ---------------------------------------------------------------------------
# the eta series and the exact Carolina degree


def _series_mul(a: list[Fraction], b: list[Fraction], prec: int) -> list[Fraction]:
    out = [Fraction(0)] * prec
    for i, ai in enumerate(a[:prec]):
        if not ai:
            continue
        for j, bj in enumerate(b[:prec - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def eta_series(N: int) -> list[int]:
    """Integer coefficients of (1-x)/sqrt(1 - 4x + 4x^2 - 4x^3 + 4x^4).

    The inverse square root is computed by Newton iteration on truncated
    series in exact rationals; integrality of the result is asserted, so a
    wrong expansion cannot pass silently.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    prec = N + 1
    q = [Fraction(v) for v in (1, -4, 4, -4, 4)][:prec]
    q += [Fraction(0)] * (prec - len(q))
    z = [Fraction(1)]
    cur = 1
    while cur < prec:
        cur = min(2 * cur, prec)
        z = z + [Fraction(0)] * (cur - len(z))
        z3 = _series_mul(_series_mul(z, z, cur), z, cur)
        qz3 = _series_mul(q, z3, cur)
        z = [(3 * zi - ti) / 2 for zi, ti in zip(z, qz3)]
    z = z + [Fraction(0)] * (prec - len(z))
    out = []
    for i in range(prec):
        coeff = z[i] - (z[i - 1] if i else Fraction(0))
        if coeff.denominator != 1:
            raise ArithmeticError(f"coefficient {i} is not an integer: {coeff}")
        out.append(int(coeff))
    return out


def carolina_degree(n: int) -> Fraction:
    """Exact degree on Comp(n) via the fiber-count double sum.

    Groups compositions by first part c_1 and length ell; each contributes
    binom(n-c_1-1, ell-2) * binom(c_1, ell-1)^2 ordered collision pairs.
    The single-part composition (n) is the ell = 1 boundary term and is
    added explicitly as 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1
    for c1 in range(1, n):
        for ell in range(2, n - c1 + 2):
            total += comb(n - c1 - 1, ell - 2) * comb(c1, ell - 1) ** 2
    return Fraction(total, 1 << (n - 1))


def carolina_growth_root(tol: float = 1e-12) -> float:
    """Smallest positive root of 1 - 4x + 4x^2 - 4x^3 + 4x^4, by bisection."""

    def q(x: float) -> float:
        return 1 + x * (-4 + x * (4 + x * (-4 + 4 * x)))

    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if q(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def carolina_degree_asymptotic(n: int) -> float:
    """Asymptotic value (1-rho)/sqrt(pi (1-3rho+2rho^2-rho^3) n) (1/(2 rho))^n."""
    rho = carolina_growth_root()
    const = (1 - rho) / math.sqrt(math.pi * (1 - 3 * rho + 2 * rho ** 2 - rho ** 3) * n)
    return const * (1 / (2 * rho)) ** n


def carolina_asymptotic_report(max_n: int, start: int = 2) -> list[dict]:
    """Ratio of exact to asymptotic degree; the ratio drifts toward 1."""
    rows = []
    for n in range(start, max_n + 1):
        exact = carolina_degree(n)
        est = carolina_degree_asymptotic(n)
        rows.append({"n": n, "exact": exact, "asymptotic": est,
                     "ratio": float(exact) / est})
    return rows
