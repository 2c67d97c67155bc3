"""Expected CLI outputs, computed without importing noninv.

Every exact value a benchmark command prints is compared against a value
from this module: a closed form recomputed here, a brute-force count done
here, or a value pinned from the package when the benchmark was written.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, isqrt, prod

# Pinned from the package (exhaustive enumeration there, no closed form here).
STACK_DEGREE = {4: Fraction(28, 3), 9: Fraction(9787349, 30240)}
BULGARIAN_DEGREE = {6: Fraction(17, 11), 50: Fraction(226867, 102113)}
# (n, k) -> (maximizing table, (deg(f^k)/deg(f)^2) as "p/q") for gamma = 2
RATIO_WITNESS = {(3, 2): ([0, 0, 1], "27/25"), (6, 2): ([0, 0, 1, 1, 2, 3], "6/5")}
ETA_PREFIX = [1, 1, 2, 6, 16, 42, 114, 314, 870, 2426, 6804, 19168]


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def bubble_degree(n: int) -> Fraction:
    return Fraction((n + 1) * (n + 2), 6)


def multinomial(a) -> int:
    return factorial(sum(a)) // prod(factorial(x) for x in a)


def word_degree(a) -> Fraction:
    result = Fraction(1)
    for j in range(1, len(a)):
        result *= 2 * Fraction(a[j - 1], sum(a[j:]) + 1) + 1
    return result


def carolina_degree(n: int) -> Fraction:
    total = 1
    for c1 in range(1, n):
        for ell in range(2, n - c1 + 2):
            total += comb(n - c1 - 1, ell - 2) * comb(c1, ell - 1) ** 2
    return Fraction(total, 2 ** (n - 1))


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def tree(b: int, k: int) -> dict:
    """Branching, size and the degrees of F and F^k for the tree T_b."""
    branching = [b]
    for _ in range(k - 1):
        branching.append(isqrt(branching[-1]))
    branching.append(branching[-1])
    per_level = branching[:k] + [1] * branching[k]
    levels = [1]
    for m in per_level:
        levels.append(levels[-1] * m)
    size = sum(levels)

    def deg(r: int) -> Fraction:
        depth = len(per_level)
        total = sum(levels[:min(r, depth) + 1]) ** 2
        for t in range(1, depth - r + 1):
            total += levels[t] * prod(per_level[t:t + r]) ** 2
        return Fraction(total, size)

    return {"branching": branching, "domain_size": size,
            "degree": frac(deg(1)), "iterate_degree": frac(deg(k))}


def histogram(fibers: dict, domain: int) -> dict:
    hist: dict[int, int] = {}
    for c in fibers.values():
        hist[c] = hist.get(c, 0) + 1
    hist[0] = domain - len(fibers)
    return {str(s): c for s, c in sorted(hist.items()) if c}


def hecke(n: int, word) -> dict:
    """Brute force over S_n: apply t_i (sort positions i, i+1) along word."""
    fibers: dict[tuple, int] = {}
    for p in permutations(range(1, n + 1)):
        q = list(p)
        for i in word:
            if q[i - 1] > q[i]:
                q[i - 1], q[i] = q[i], q[i - 1]
        key = tuple(q)
        fibers[key] = fibers.get(key, 0) + 1
    domain = factorial(n)
    return {
        "degree": frac(Fraction(sum(c * c for c in fibers.values()), domain)),
        "domain_size": domain,
        "histogram": histogram(fibers, domain),
        "image_size": len(fibers),
        "eventually_constant": set(word) >= set(range(1, n)),
    }


def eta(N: int) -> list[int]:
    """Coefficients of (1-x)/sqrt(q), q = 1-4x+4x^2-4x^3+4x^4.

    y = q^(-1/2) satisfies 2 q y' + q' y = 0, which gives y term by term.
    """
    q = [1, -4, 4, -4, 4]
    y = [Fraction(1)]
    for m in range(N):
        acc = sum(2 * q[i] * (m - i + 1) * y[m - i + 1]
                  for i in range(1, 5) if m - i + 1 >= 0)
        acc += sum((i + 1) * q[i + 1] * y[m - i] for i in range(4) if m - i >= 0)
        y.append(-acc / (2 * (m + 1)))
    out = [y[0]] + [y[m] - y[m - 1] for m in range(1, N + 1)]
    if any(c.denominator != 1 for c in out):
        raise ArithmeticError("eta recurrence produced a non-integer")
    return [int(c) for c in out]


# ---------------------------------------------------------------------------
# checks on one payload


def _moments(payload: dict, want):
    """[points, preimages, degree] as implied by the printed histogram."""
    hist = {int(s): c for s, c in payload["histogram"].items()}
    points = sum(hist.values())
    return [points, sum(s * c for s, c in hist.items()),
            frac(Fraction(sum(s * s * c for s, c in hist.items()), points))]


def _details(payload: dict, want):
    return [c["detail"] for c in payload["checks"]]


def _mean_band(payload: dict, want):
    """The band itself when the printed mean lies in it, else the mean."""
    lo, hi = want
    mean = float(payload["mean"])
    return want if lo <= mean <= hi else mean


# Keys that are not payload fields but are derived from the payload.
DERIVED = {"histogram_moments": _moments, "check_details": _details,
           "mean_band": _mean_band}


def mismatches(payload: dict, expect: dict) -> list[dict]:
    """Every expected key whose value differs, with both values."""
    out = []
    for key, want in expect.items():
        try:
            got = DERIVED[key](payload, want) if key in DERIVED else payload.get(key)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            got = f"unreadable: {exc!r}"
        if got != want:
            out.append({"key": key, "got": got, "want": want})
    return out
