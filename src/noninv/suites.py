"""Verification suites: each closed form against an independent enumeration.

A suite is a function of keyword sizes whose defaults are the sizes
``noninv verify <suite>`` runs; the acceptance gate calls the same functions
at wider sizes.  A suite returns its checks as dicts
``{"name", "ok", "detail"}``; a failed check names both values.
The library is reached through module attributes (``bubble.bubble_endomap``)
so that a test replacing an entry point on its module reaches every suite.
"""

from __future__ import annotations

import operator
import random
from array import array
from fractions import Fraction
from itertools import product
from math import factorial

from . import bubble, extremal, hecke, nibble, solitaire, stacksort
from .endo import (EndoMap, FiberHistogram, compose_tables, dec_str, degree,
                   fiber_sizes, frac_str, is_bijection, is_constant, iterate,
                   lane_columns)
from .perms import permutation_domain, reverse_complement


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _equal(name: str, got: Fraction, want: Fraction) -> dict:
    return _check(name, got == want, f"{frac_str(got)} vs {frac_str(want)}")


def thm1(max_n: int = 7, k: int = 3) -> list[dict]:
    """Theorem 1: degree of the j-th bubble-sort pass on S_n, j <= k."""
    checks = []
    for n in range(1, max_n + 1):
        base = bubble.bubble_endomap(n)
        for j in range(1, k + 1):
            checks.append(_equal(f"iterated pass degree n={n} k={j}",
                                 degree(iterate(base, j)),
                                 bubble.bubble_degree_formula(n, j)))
    return checks


def moments(max_n: int = 6, m: int = 3, degree_max_n: int = 40) -> list[dict]:
    """Moments of the preimage count of one bubble pass, by brute force; the
    first moment against the degree formula for n <= degree_max_n."""
    checks = []
    for n in range(1, max_n + 1):
        f = bubble.bubble_endomap(n)
        sizes = fiber_sizes(f.table)
        for j in range(1, m + 1):
            got = Fraction(sum(sizes[y] ** j for y in f.table), f.n)
            checks.append(_equal(f"fiber moment n={n} m={j}", got,
                                 bubble.bubble_moment(n, j)))
    for n in range(1, degree_max_n + 1):
        got = bubble.bubble_moment(n, 1)
        want = bubble.bubble_degree_formula(n, 1)
        checks.append(_check(f"first moment equals degree n={n}", got == want,
                             "exact" if got == want
                             else f"{frac_str(got)} vs {frac_str(want)}"))
    return checks


def lem2(n: int = 5, k: int = 2) -> list[dict]:
    """Lemma 2: every fiber size of the j-th bubble pass on S_n, j <= k."""
    checks = []
    base = bubble.bubble_endomap(n)
    dom = permutation_domain(n)
    for j in range(1, k + 1):
        sizes = fiber_sizes(iterate(base, j).table)
        wants = [bubble.bubble_preimage_count(dom.unrank(idx), j)
                 for idx in range(len(sizes))]
        bad = [i for i, (s, w) in enumerate(zip(sizes, wants)) if s != w]
        detail = f"{len(bad)} mismatches over {len(sizes)} targets"
        if bad:
            detail += f"; first at rank {bad[0]}: {sizes[bad[0]]} vs {wants[bad[0]]}"
        checks.append(_check(f"fiber sizes match closed form n={n} k={j}",
                             not bad, detail))
    return checks


def words(max_n: int = 8,
          heavy: tuple[tuple[int, ...], ...] = ((2, 120), (120, 2), (40, 2, 1)),
          ) -> list[dict]:
    """Bubble sort on words: degree against the product formula, for every
    content of 2 to 4 letters with total <= max_n and at most
    ``bubble._WORD_LIMIT`` words, then the heavy contents."""
    contents = []
    for r in (2, 3, 4):
        for a in product(range(1, max_n), repeat=r):
            if (sum(a) <= max_n
                    and bubble.multinomial(a) <= bubble._WORD_LIMIT):
                contents.append(a)
    contents += heavy
    return [_equal(f"word degree content={a}",
                   degree(bubble.word_bubble_endomap(a)),
                   bubble.word_degree_formula(a))
            for a in contents]


def thm4(max_n: int = 7) -> list[dict]:
    """Theorem 4: the single-swap degree and its limit."""
    checks = [_equal(f"single-swap degree n={n}",
                     degree(nibble.nibble_endomap(n)),
                     nibble.nibble_degree_formula(n))
              for n in range(1, max_n + 1)]
    val = float(nibble.nibble_degree_formula(20))
    lim = nibble.nibble_degree_limit()
    checks.append(_check("partial sum at n=20 near the limit",
                         abs(val - lim) < 1e-6, f"{val!r} vs {lim!r}"))
    return checks


def binary32(max_n: int = 12) -> list[dict]:
    """Binary nibble and chip firing: degree 3/2, one histogram, fixed points."""
    checks = []
    for n in range(2, max_n + 1):
        nib_f = nibble.nibble_binary_endomap(n)
        chi_f = nibble.chip_endomap(n)
        expected = nibble.expected_binary_histogram(n)
        nib_h = FiberHistogram.from_map(nib_f)
        chi_h = FiberHistogram.from_map(chi_f)
        degrees = (nib_h.degree(), chi_h.degree())
        hists = (nib_h.counts, chi_h.counts)
        ok = (degrees == (Fraction(3, 2),) * 2 and hists == (expected,) * 2
              and nib_h == chi_h)  # pseudoconjugate
        detail = "exact" if ok else (
            f"degrees {frac_str(degrees[0])}, {frac_str(degrees[1])} vs 3/2; "
            f"histograms {hists[0]}, {hists[1]} vs {expected}")
        fixed_ok = (any(i == v for i, v in enumerate(nib_f.table))
                    and not any(i == v for i, v in enumerate(chi_f.table)))
        checks.append(_check(f"degree 3/2 and histogram n={n}", ok, detail))
        checks.append(_check(f"fixed points: nib yes, chip no n={n}",
                             fixed_ok, "structural"))
    return checks


def stack(max_n: int = 9) -> list[dict]:
    """Stack sorting: d_n <= C_n, superadditivity, and the a_10 growth bound."""
    degrees = {n: stacksort.stack_degree(n) for n in range(1, max_n + 1)}
    checks = []
    for n, d in degrees.items():
        bound = stacksort.catalan(n)
        checks.append(_check(f"degree within the Catalan bound n={n}",
                             d <= bound, f"d_{n} = {frac_str(d)}, C_{n} = {bound}"))
    failures = stacksort.superadditivity_failures(degrees)
    checks.append(_check("d_(m-1) d_(n-1) <= (m+n-1) d_(m+n-1)", not failures,
                         f"{len(failures)} failing pairs {failures}"))
    if 9 in degrees:
        checks.append(_check("(d_9/100)^(1/10) >= 1.12462",
                             stacksort.a10_lower_bound_ok(degrees[9]),
                             f"{dec_str(float(degrees[9] / 100) ** 0.1)} "
                             f"from d_9 = {frac_str(degrees[9])}"))
    return checks


def thm5(max_n: int = 20) -> list[dict]:
    """Theorem 5: Bulgarian solitaire's fiber bound and its image."""
    checks = []
    for n in range(1, max_n + 1):
        hist, image, shapes = solitaire.bulgarian_fibers(n)
        bound = solitaire.max_preimage_bound(n)
        largest = max(hist.counts)
        checks.append(_check(f"max fiber within bound n={n}", largest <= bound,
                             f"max {largest} <= {bound}"))
        defects = solitaire.bulgarian_image_defects(n, image, shapes)
        checks.append(_check(f"image is rank >= -1 n={n}", defects == (0, 0),
                             f"{hist.n - hist.counts.get(0, 0)} image points"))
    return checks


def thm6(max_n: int = 14) -> list[dict]:
    """Theorem 6: Carolina's degree as a double sum, a series and by brute
    force; the series to max(max_n, 40), brute force to min(max_n, 14)."""
    series_n = max(max_n, 40)
    eta = solitaire.eta_series(series_n)
    checks = [_equal(f"double sum equals series n={n}",
                     solitaire.carolina_degree(n),
                     Fraction(eta[n], 2 ** (n - 1)))
              for n in range(1, series_n + 1)]
    checks += [_equal(f"brute force agrees n={n}",
                      degree(solitaire.carolina_endomap(n)),
                      solitaire.carolina_degree(n))
               for n in range(1, min(max_n, 14) + 1)]
    return checks


def thm7(samples: int = 1000, seed: int = 0) -> list[dict]:
    """Theorem 7 on random pairs: `samples` pairs for each n in 4..10."""
    rng = random.Random(seed)
    checks = []
    for n in range(4, 11):
        bad = 0
        for start in range(0, samples, extremal._LANE_BLOCK):
            pairs = min(extremal._LANE_BLOCK, samples - start)
            # each pair draws f's table first, then g's
            data = extremal.draw_tables(n, 2 * pairs, rng)
            holds, _ = extremal.check_theorem7_lanes(
                lane_columns(data, n, 2 * n), lane_columns(data, n, 2 * n, n),
                pairs)
            bad += pairs - sum(holds)
        checks.append(_check(f"random pairs n={n}", bad == 0,
                             f"{bad} failures in {samples}"))
    return checks


def thm7_exhaustive(n: int = 3) -> list[dict]:
    """Theorem 7 on all pairs over n points; equality holds exactly when f
    is constant and g a bijection, which is n * n! pairs."""
    maps = [EndoMap.from_table(t) for t in extremal.all_tables(n)]
    bijective = [is_bijection(g) for g in maps]
    blocks = []  # the g of each block: lane columns, lanes, bijections
    for block in extremal.table_blocks(n):
        start, lanes = len(blocks) * extremal._LANE_BLOCK, len(block) // n
        blocks.append((lane_columns(block, n, n), lanes,
                       bijective[start:start + lanes]))
    holds = equalities = agree = 0
    for f in maps:
        constant = is_constant(f)
        for gcols, lanes, bijections in blocks:
            fcols = lane_columns(bytes(f.table) * lanes, n, n)
            h, eq = extremal.check_theorem7_lanes(fcols, gcols, lanes)
            holds += sum(h)
            equalities += sum(eq)
            # the predicate holds in no lane unless f is constant
            agree += sum(map(operator.eq, eq,
                             bijections if constant else [False] * lanes))
    total = len(maps) ** 2
    want = n * factorial(n)
    ok = agree == total and equalities == want
    detail = f"{equalities} equality pairs"
    if not ok:
        detail += f" vs {want}; {total - agree} pairs disagree with the predicate"
    return [_check(f"inequality over all {total} pairs n={n}",
                   holds == total, f"{holds}/{total} hold"),
            _check("equality only for constant after bijection", ok, detail)]


def thm3(max_n: int = 4, k: int = 4) -> list[dict]:
    """Theorem 3 over all maps on n <= max_n points, and the 27/25 witness."""
    checks = []
    for n in range(1, max_n + 1):
        bad = sum(extremal.theorem3_lane_failures(lane_columns(block, n, n), k,
                                                  len(block) // n)
                  for block in extremal.table_blocks(n))
        checks.append(_check(f"powered bound over all maps n={n} k<={k}",
                             bad == 0, f"{bad} failures over {n ** n} maps"))
    w = extremal.exhaustive_ratio_search(3, 2, 2)
    checks.append(_check("collapse ratio maximum at n=3",
                         w.ratio_pow >= Fraction(27, 25) and w.recompute(),
                         f"ratio^1 = {frac_str(w.ratio_pow)}"))
    return checks


def prop1(k: int = 2) -> list[dict]:
    """Proposition 1: the tree family F_b at b = 5, 10, 100, 1000."""
    checks = []
    base = []
    ratio = []
    for b in (5, 10, 100, 1000):
        (hist, deg_fk), closed = extremal.prop1_degrees(b, k)
        deg_f = hist.degree()
        engine = deg_f, deg_fk
        base.append(float(deg_f))
        # deg(F_b^k) grows like n_b^(1 - 1/2^(k-1))
        ratio.append(float(deg_fk) / hist.n ** (1 - 1 / 2 ** (k - 1)))
        detail = f"deg={frac_str(deg_f)} iterate={frac_str(deg_fk)}"
        if engine != closed:
            detail += (f" vs stratified deg={frac_str(closed[0])} "
                       f"iterate={frac_str(closed[1])}")
        checks.append(_check(f"engine equals stratified b={b} k={k}",
                             engine == closed, detail))
    checks.append(_check("base degrees increase toward k+1",
                         base == sorted(base) and base[-1] < k + 1,
                         " -> ".join(dec_str(x) for x in base)))
    checks.append(_check("normalized iterate degrees decrease toward 1",
                         ratio == sorted(ratio, reverse=True) and ratio[-1] > 1,
                         " -> ".join(dec_str(x) for x in ratio)))
    return checks


def hecke_odd(max_n: int = 6,
              scans: tuple[tuple[int, int], ...] = ((3, 4),)) -> list[dict]:
    """Alternating sorting operators: image size, symmetry, equal degrees.

    Each (n, longest word) of scans runs one degree-range scan, which only
    reports: fully sorting words exceed the conjectured upper endpoint, so
    its check counts them and always passes.
    """
    checks = []
    alts = {}
    for n in range(1, max_n + 1):
        table = hecke.hecke_rank_table(hecke.t_alt_word(n))
        if n in (5, 7):
            alts[n] = table  # for the pair checks below
        got = len(set(table))
        want = hecke.updown_count(n)
        checks.append(_check(f"image size is the zigzag number n={n}",
                             got == want, f"{got} vs {want}"))
    for n, alt in alts.items():
        tla = hecke.hecke_rank_table(hecke.t_tla_word(n))
        dom = permutation_domain(n)
        rc = array("I", map(dom.rank, map(reverse_complement, dom.objects())))
        # alt(rc(pi)) == rc(tla(pi)) at every pi, as tables
        ok = compose_tables(alt, rc) == compose_tables(rc, tla)
        checks.append(_check(f"reverse-complement intertwining n={n}", ok,
                             "pointwise"))
        checks.append(_equal(f"alternating operators share a degree n={n}",
                             FiberHistogram.from_table(alt).degree(),
                             FiberHistogram.from_table(tla).degree()))
    for n, length in scans:
        report = hecke.conjecture2_scan(n, length)
        checks.append(_check(
            "degree range scan (report only)", True,
            f"{len(report.violations)} operators outside "
            f"[{frac_str(report.bubble_degree)}, {frac_str(report.tla_degree)}] "
            f"over {report.distinct_operators} distinct"))
    return checks
