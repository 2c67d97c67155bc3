import itertools
from fractions import Fraction
from math import factorial

import pytest

from noninv.bubble import bubble_sort
from noninv.endo import FiberHistogram, degree, is_constant, iterate
from noninv.hecke import (
    HeckeWord,
    bubble_word,
    conjecture2_scan,
    hecke_apply,
    hecke_endomap,
    is_eventually_constant,
    t_alt_word,
    t_tla_word,
    updown_count,
)
from noninv.perms import permutation_domain, reverse_complement

UPDOWN_PREFIX = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]


def test_repeated_generator_is_idempotent():
    w = HeckeWord(3, (1, 1))
    assert hecke_apply(w, (2, 1, 3)) == (1, 2, 3)
    assert hecke_apply(w, (2, 1, 3)) == hecke_apply(HeckeWord(3, (1,)), (2, 1, 3))


def test_word_validation():
    with pytest.raises(ValueError, match=r"^generator t_3 undefined for S_3$"):
        HeckeWord(3, (3,))
    with pytest.raises(ValueError, match=r"^generator t_0 undefined for S_3$"):
        HeckeWord(3, (0,))
    with pytest.raises(ValueError, match=r"^n must be positive$"):
        HeckeWord(0, ())
    with pytest.raises(ValueError):
        hecke_apply(HeckeWord(3, (1,)), (1, 2))
    for bad in [(1, 1, 2), (0, 1, 2), (1, 2, 3, 4), (2, 3, 4)]:
        with pytest.raises(ValueError):
            hecke_apply(HeckeWord(3, (1, 2)), bad)


def test_bubble_word_is_one_pass():
    for n in range(1, 7):
        w = bubble_word(n)
        for pi in itertools.permutations(range(1, n + 1)):
            assert hecke_apply(w, pi) == bubble_sort(pi)


def test_alt_and_tla_generator_sequences():
    assert t_alt_word(4).gens == (1, 3, 2)
    assert t_tla_word(4).gens == (2, 1, 3)
    assert t_alt_word(5).gens == (1, 3, 2, 4)
    assert t_tla_word(5).gens == (2, 4, 1, 3)
    assert t_alt_word(2).gens == (1,)
    assert t_alt_word(1).gens == ()


def test_updown_count_prefix():
    assert [updown_count(n) for n in range(10)] == UPDOWN_PREFIX


def updown_oracle(n):
    # direct count of alternating permutations p1 < p2 > p3 < ...
    count = 0
    for pi in itertools.permutations(range(1, n + 1)):
        if all((pi[i] < pi[i + 1]) == (i % 2 == 0) for i in range(n - 1)):
            count += 1
    return count


def test_updown_count_against_direct_enumeration():
    for n in range(0, 8):
        assert updown_count(n) == (updown_oracle(n) if n else 1)


def test_image_sizes_equal_updown_counts():
    for n in range(1, 7):
        for word in (t_alt_word(n), t_tla_word(n)):
            f = hecke_endomap(word)
            assert len(set(f.table)) == updown_count(n), (n, word.gens)


def test_degree_lower_bound_via_image_size():
    for n in range(2, 7):
        assert degree(hecke_endomap(t_tla_word(n))) >= Fraction(factorial(n), updown_count(n))


def test_odd_n_reverse_complement_intertwining():
    for n in (3, 5):
        alt, tla = t_alt_word(n), t_tla_word(n)
        for pi in itertools.permutations(range(1, n + 1)):
            assert hecke_apply(alt, reverse_complement(pi)) == reverse_complement(hecke_apply(tla, pi))
        f, g = hecke_endomap(alt), hecke_endomap(tla)
        assert degree(f) == degree(g)
        assert FiberHistogram.from_map(f) == FiberHistogram.from_map(g)


def test_eventually_constant_iff_word_covers_generators():
    # iterate to a constant map at the identity <=> every generator appears
    for n in range(2, 5):
        dom = permutation_domain(n)
        id_index = dom.rank(tuple(range(1, n + 1)))
        for length in range(1, 2 * n):
            for gens in itertools.product(range(1, n), repeat=length):
                word = HeckeWord(n, gens)
                f = hecke_endomap(word)
                stabilized = iterate(f, factorial(n))
                settles = is_constant(stabilized) and stabilized.table[0] == id_index
                assert settles == is_eventually_constant(word), (n, gens)
            if n == 4 and length >= 5:
                break


def test_scan_finds_constant_operators_above_upper_endpoint():
    # Fully sorting words are eventually-constant operators of degree n!,
    # which exceeds the conjectured upper endpoint deg(T_tla) whenever the
    # T_tla image has more than one element.  The scan must report them
    # rather than silently clip the interval.
    report = conjecture2_scan(3, 4)
    assert report.bubble_degree == Fraction(10, 3)
    assert report.tla_degree == Fraction(10, 3)
    assert report.violations, "fully sorting words should be reported"
    degrees = {v["degree"] for v in report.violations}
    assert degrees == {Fraction(6)}
    words = {v["word"] for v in report.violations}
    assert (1, 2, 1) in words
    # every violation sits above the upper endpoint, none below the lower
    assert all(v["degree"] > report.tla_degree for v in report.violations)
    assert report.distinct_operators >= 2


def test_scan_rejects_trivial_n():
    with pytest.raises(ValueError):
        conjecture2_scan(1, 3)


def test_endomap_matches_public_apply():
    # the endomap skips the per-point checks; its table must not change
    for n in range(1, 6):
        reverse = HeckeWord(n, tuple(range(n - 1, 0, -1)) * 2)
        for word in (bubble_word(n), t_alt_word(n), reverse):
            dom = permutation_domain(n)
            want = tuple(dom.rank(hecke_apply(word, pi)) for pi in dom.objects())
            assert hecke_endomap(word).table == want
