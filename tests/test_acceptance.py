"""Acceptance gate: fourteen end-to-end checks, one summary line each.

Every check but the ninth, a seeded sampling band, runs the suites of
``noninv verify`` (``noninv.suites``) at the sizes below and passes when
every check they return passed.  Each summary line prints before its
assertion (run with -s or -rA to see the lines of passing checks too).
"""

import time

from noninv import suites
from noninv.solitaire import monte_carlo_bulgarian


def _verdict(index: int, ok: bool, what: str, t0: float, extra: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - t0
    print(f"[{tag}] acceptance {index}/14: {what} | {extra} [{elapsed:.1f}s]",
          flush=True)
    return ok


def _gate(index: int, what: str, run) -> None:
    t0 = time.perf_counter()
    checks = run()
    failed = [f"{c['name']}: {c['detail']}" for c in checks if not c["ok"]]
    extra = f"failed {failed}" if failed else f"{len(checks)} checks pass"
    assert _verdict(index, not failed, what, t0, extra)


def test_01_iterated_pass_degree_formula():
    _gate(1, "iterated bubble-pass degree equals closed form, n<=8 k<=3",
          lambda: suites.thm1(max_n=8, k=3))


def test_02_fiber_size_closed_form():
    _gate(2, "per-target fiber sizes equal closed form, n<=7 k<=3",
          lambda: [c for n in range(1, 8)
                   for c in suites.lem2(n=n, k=3)])


def test_03_preimage_count_moments():
    _gate(3, "preimage-count moments match product form, n<=7 m<=3; "
             "first moment equals degree to n=50",
          lambda: suites.moments(max_n=7, m=3, degree_max_n=50))


def test_04_word_degree_product():
    # every content with 2 to 4 letters, total <= 12 and at most 10^4 words,
    # plus heavy two- and three-letter contents
    heavy = ((1, 500), (500, 1), (2, 120), (120, 2), (40, 2, 1))
    _gate(4, "word-sorting degree equals product form",
          lambda: suites.words(max_n=12, heavy=heavy))


def test_05_single_swap_degree_series():
    _gate(5, "first-descent swap degree: formula equals brute force n<=8; "
             "value at n=20 within 1e-6 of the limit",
          lambda: suites.thm4(max_n=8))


def test_06_binary_maps_degree_three_halves():
    _gate(6, "binary swap and chip maps: degree 3/2, matching histograms, "
             "pseudoconjugate, fixed-point contrast, 2<=n<=16",
          lambda: suites.binary32(max_n=16))


def test_07_stack_degree_growth():
    _gate(7, "stack-sorting degrees to n=9: Catalan bound, superadditivity, "
             "tenth-root growth bound",
          lambda: suites.stack(max_n=9))


def test_08_partition_shift_bound_and_image():
    _gate(8, "partition dynamics: fiber bound and rank >= -1 image, n<=45",
          lambda: suites.thm5(max_n=45))


def test_09_large_partition_sample_mean():
    t0 = time.perf_counter()
    mean, stddev = monte_carlo_bulgarian(1000, 100, rng_seed=1)
    ok = 2.6 <= mean <= 3.3
    assert _verdict(9, ok,
                    "mean preimage count over 100 uniform partitions of 1000 "
                    "in [2.6, 3.3]", t0,
                    f"mean {mean:.3f}, sample sd {stddev:.3f}, seed 1")


def test_10_composition_shift_degree_series():
    # max_n 14 checks the series to n = 40 and brute force to n = 14
    _gate(10, "composition-shift degree: double sum equals series "
              "coefficients n<=40 and brute force n<=14",
          lambda: suites.thm6(max_n=14))


def test_11_composition_degree_inequality():
    _gate(11, "composition inequality: all 729 pairs at n=3 with exactly 18 "
              "equalities; 10^5 random pairs per n in 4..10",
          lambda: suites.thm7_exhaustive(n=3)
          + suites.thm7(samples=10 ** 5, seed=0))


def test_12_iterate_inequality_and_search():
    _gate(12, "iterate-versus-base powered inequality, all maps n<=5 k<=4; "
              "ratio search at n=3 attains 27/25",
          lambda: suites.thm3(max_n=5, k=4))


def test_13_tree_family_degrees():
    _gate(13, "tree family k=2: engine equals stratified form at "
              "b in {5,10,100,1000}; trends rise toward 3 and fall toward 1",
          lambda: suites.prop1(k=2))


def test_14_sorting_operator_census():
    scans = ((3, 6), (4, 6))

    def census():
        checks = suites.hecke_odd(max_n=7, scans=scans)
        # the degree-range scans come last and are informational: fully
        # sorting operators exceed the conjectured upper end
        for (n, length), c in zip(scans, checks[-len(scans):]):
            print(f"[REPORT] operator scan n={n}, words to length {length}: "
                  f"{c['detail']}", flush=True)
        return checks

    _gate(14, "alternating-operator census matches zigzag counts n<=7; "
              "reverse-complement symmetry and equal degrees at n=5,7",
          census)
