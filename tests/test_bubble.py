import itertools
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from noninv import bubble
from noninv.bubble import (
    bubble_degree_formula,
    bubble_endomap,
    bubble_moment,
    bubble_preimage_count,
    bubble_rank_table,
    bubble_sort,
    multinomial,
    word_bubble_endomap,
    word_content,
    word_degree_formula,
    word_rank_table,
    WordDomain,
)
from noninv.endo import FiberHistogram, degree, fiber_sizes, iterate
from oracles import bubble_sort_recursive, inversion_table


def brute_fibers(n, k=1):
    """Oracle: |B^-k(pi)| for every pi in S_n, by direct enumeration."""
    fibers = Counter()
    for pi in itertools.permutations(range(1, n + 1)):
        img = pi
        for _ in range(k):
            img = bubble_sort(img)
        fibers[img] += 1
    return fibers


def brute_degree(fibers, n):
    return Fraction(sum(c * c for c in fibers.values()), factorial(n))


def test_bubble_pass_example():
    assert bubble_sort((4, 1, 6, 3, 5, 2)) == (1, 4, 3, 5, 2, 6)


def test_pass_decrements_nonzero_inversion_entries():
    assert inversion_table((4, 1, 6, 3, 5, 2)) == (1, 4, 2, 0, 1, 0)
    assert inversion_table((1, 4, 3, 5, 2, 6)) == (0, 3, 1, 0, 0, 0)
    for n in range(7):
        for pi in itertools.permutations(range(1, n + 1)):
            expected = tuple(max(0, e - 1) for e in inversion_table(pi))
            assert inversion_table(bubble_sort(pi)) == expected


def test_sweep_matches_recursion():
    for n in range(8):
        for pi in itertools.permutations(range(1, n + 1)):
            assert bubble_sort(pi) == bubble_sort_recursive(pi)


def test_sorts_after_n_minus_1_passes():
    for n in range(2, 8):
        for pi in itertools.permutations(range(1, n + 1)):
            img = pi
            for _ in range(n - 1):
                img = bubble_sort(img)
            assert img == tuple(range(1, n + 1))


def test_preimage_count_examples():
    assert bubble_preimage_count((2, 1, 3)) == 2
    assert bubble_preimage_count((1, 3, 2)) == 0


def test_preimage_count_matches_brute_force():
    for n in range(1, 7):
        for k in range(0, 4):
            fibers = brute_fibers(n, k)
            for pi in itertools.permutations(range(1, n + 1)):
                assert bubble_preimage_count(pi, k) == fibers[pi], (n, k, pi)


def test_preimage_count_beyond_constant_regime():
    # B^k = B^min(k, n), so large k must still match brute force
    for n in range(1, 5):
        for k in (n, n + 1, n + 3):
            fibers = brute_fibers(n, k)
            for pi in itertools.permutations(range(1, n + 1)):
                assert bubble_preimage_count(pi, k) == fibers[pi], (n, k, pi)


def test_sorted_count_identity():
    # fiber of the identity: k!(k+1)^(n-k) = (k+1)^(n-k-1) (k+1)!
    for n in range(1, 10):
        for k in range(0, n):
            count = bubble_preimage_count(tuple(range(1, n + 1)), k)
            assert count == (k + 1) ** (n - k - 1) * factorial(k + 1)


def test_rank_table_equals_iterated_object_map():
    # bubble_rank_table, and word_rank_table at content (1, ..., 1)
    for n in range(9):
        f = bubble_endomap(n)
        for k in range(n + 2):
            table = list(iterate(f, k).table)
            assert list(bubble_rank_table(n, k)) == table, (n, k)
            assert list(word_rank_table((1,) * max(n, 1), k)) == table, (n, k)
    assert list(bubble_rank_table(9, 1)) == list(bubble_endomap(9).table)


def test_rank_table_refusals():
    with pytest.raises(ValueError, match="enumeration limit"):
        bubble_rank_table(11)
    with pytest.raises(ValueError, match="nonnegative"):
        bubble_rank_table(5, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        bubble_rank_table(-1)


def test_degree_formula_small_values():
    assert bubble_degree_formula(2, 1) == 2
    assert bubble_degree_formula(3, 1) == Fraction(10, 3)
    # single-pass degree is (n+1)(n+2)/6
    for n in range(1, 30):
        assert bubble_degree_formula(n, 1) == Fraction((n + 1) * (n + 2), 6)


def test_degree_formula_matches_engine():
    for n in range(1, 7):
        b = bubble_endomap(n)
        for k in range(1, 4):
            assert degree(iterate(b, k)) == bubble_degree_formula(n, k), (n, k)


def test_degree_formula_constant_regime():
    # for k >= n - 1 every pass is the constant map, degree n!
    for n in range(1, 6):
        for k in (n - 1, n, n + 2, 3 * n + 1):
            if k >= 1:
                assert bubble_degree_formula(n, k) == factorial(n)
                assert degree(iterate(bubble_endomap(n), k)) == factorial(n)


def test_single_pass_fibers_s3():
    fibers = brute_fibers(3)
    assert sorted(fibers.values()) == [2, 4]
    assert brute_degree(fibers, 3) == Fraction(10, 3)


def test_moment_one_is_the_degree():
    for n in range(1, 51):
        assert bubble_moment(n, 1) == bubble_degree_formula(n, 1)


def test_moments_match_exhaustive():
    for n in range(1, 7):
        fibers = brute_fibers(n)
        for m in range(0, 4):
            exact = Fraction(
                sum(fibers[bubble_sort(pi)] ** m for pi in itertools.permutations(range(1, n + 1))),
                factorial(n),
            )
            assert bubble_moment(n, m) == exact, (n, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        bubble_degree_formula(0, 1)
    with pytest.raises(ValueError):
        bubble_degree_formula(3, -1)
    with pytest.raises(ValueError):
        bubble_moment(2, -1)
    with pytest.raises(ValueError):
        bubble_preimage_count((1, 2), -1)


# ---------------------------------------------------------------------------
# words


def test_word_content_and_validation():
    assert word_content((1, 2, 1, 3)) == (2, 1, 1)
    with pytest.raises(ValueError):
        word_content((1, 3))  # letter 2 missing
    with pytest.raises(ValueError):
        word_content(())


def test_words_of_content_enumeration():
    words = list(bubble._words((2, 1)))
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert multinomial((2, 1)) == 3
    for a in [(1, 1), (2, 2), (1, 2, 1), (3, 1)]:
        ws = list(bubble._words(a))
        assert len(ws) == multinomial(a) == len(set(ws))
        assert ws == sorted(ws)


def test_word_domain_rank_round_trip(monkeypatch):
    for a in [(2, 1), (2, 2), (1, 2, 1), (3, 2)]:
        dom = WordDomain(a)
        for i in range(dom.size):
            assert dom.rank(dom.unrank(i)) == i
    with pytest.raises(ValueError):
        WordDomain((2, 1)).rank((1, 1, 1))
    dom = WordDomain((2, 1))
    for bad in [(1, 1), (1, 2, 2), (1, 1, 3), (0, 1, 2), (), (1, 1, 2, 1)]:
        with pytest.raises(ValueError):
            dom.rank(bad)
    assert dom.rank([2, 1, 1]) == 2
    # 168,168 words, above the 10^5 words the codec once ranked
    # arithmetically instead of materializing
    a = (6, 5, 3)
    f = word_bubble_endomap(a)
    assert f.n == multinomial(a) == 168168
    assert degree(f) == word_degree_formula(a)
    words = list(bubble._words(a))
    for i in range(0, f.n, 997):
        assert f.codec.unrank(i) == words[i]
        assert f.codec.rank(words[i]) == i
    # a domain above the ceiling is refused before any word is enumerated
    def no_enumeration(*args):
        raise AssertionError("enumerated a domain above the ceiling")

    monkeypatch.setattr(bubble, "_words", no_enumeration)
    assert multinomial((6, 6, 6)) > bubble._WORD_HARD_LIMIT
    with pytest.raises(ValueError, match="enumeration limit"):
        WordDomain((6, 6, 6))


def test_two_letter_gap_tuple_action():
    # encode a 2-letter word by the runs of 1s around the 2s; one pass sends
    # (g_0, g_1, g_2, ..., g_m) to (g_0 + g_1, g_2, ..., g_m, 0)
    def encode(gaps):
        out = []
        for i, g in enumerate(gaps):
            out.extend([1] * g)
            if i < len(gaps) - 1:
                out.append(2)
        return tuple(out)

    for gaps in itertools.product(range(3), repeat=4):
        expected = (gaps[0] + gaps[1],) + gaps[2:] + (0,)
        assert bubble_sort(encode(gaps)) == encode(expected)


def brute_word_degree(a):
    fibers = Counter(bubble_sort(w) for w in bubble._words(a))
    return Fraction(sum(c * c for c in fibers.values()), multinomial(a))


def test_word_degree_formula_small_contents():
    assert word_degree_formula((1, 1)) == 2
    for a in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 1, 1), (2, 1, 2), (2, 2, 1), (1, 1, 1, 1), (2, 1, 1, 2)]:
        assert word_degree_formula(a) == brute_word_degree(a), a


def test_word_degree_formula_long_thin_content():
    assert word_degree_formula((1, 30)) == brute_word_degree((1, 30))
    assert word_degree_formula((30, 1)) == brute_word_degree((30, 1))


def test_single_letter_content_rejected_but_map_is_identity():
    with pytest.raises(ValueError, match="r >= 2"):
        word_degree_formula((5,))
    assert degree(word_bubble_endomap((5,))) == 1


def test_word_endomap_degree_matches_formula():
    f = word_bubble_endomap((2, 2))
    assert degree(f) == word_degree_formula((2, 2))
    assert FiberHistogram.from_map(f).degree() == degree(f)


def _words_recursive(content):
    # reference enumeration: extend a prefix by each letter still available
    counts, total, prefix, out = list(content), sum(content), [], []

    def extend():
        if len(prefix) == total:
            out.append(tuple(prefix))
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1]:
                counts[letter - 1] -= 1
                prefix.append(letter)
                extend()
                prefix.pop()
                counts[letter - 1] += 1

    extend()
    return out


def test_words_match_recursive_reference_on_verify_contents():
    # the contents of `verify words` at its default --max-n 8
    contents = [a for r in (2, 3, 4)
                for a in itertools.product(range(1, 8), repeat=r)
                if sum(a) <= 8 and multinomial(a) <= 10 ** 4]
    contents += [(2, 120), (120, 2), (40, 2, 1), (1,), (3,), (6, 4, 3)]
    for a in contents:
        assert list(bubble._words(a)) == _words_recursive(a), a


# ---------------------------------------------------------------------------
# the gap-digit kernel


def gap_digits(w):
    """For each letter v < max(w), the sorted gaps of its copies: the number
    of letters larger than v left of each copy."""
    return tuple(
        tuple(sorted(sum(1 for y in w[:i] if y > v)
                     for i, x in enumerate(w) if x == v))
        for v in range(1, max(w)))


def test_pass_lowers_every_positive_gap_digit_by_one():
    for r in range(1, 5):
        for a in itertools.product(range(1, 9), repeat=r):
            if sum(a) > 8:
                continue
            for w in bubble._words(a):
                expected = tuple(tuple(max(g - 1, 0) for g in gaps)
                                 for gaps in gap_digits(w))
                assert gap_digits(bubble_sort(w)) == expected, w


def _histogram(table):
    return Counter(fiber_sizes(table))


def test_word_rank_table_histograms_match_the_object_map():
    # the default `verify words` contents with at most 10^4 words
    contents = [a for r in (2, 3, 4)
                for a in itertools.product(range(1, 8), repeat=r)
                if sum(a) <= 8 and multinomial(a) <= bubble._WORD_LIMIT]
    contents += [a for a in ((2, 120), (120, 2), (40, 2, 1))
                 if multinomial(a) <= bubble._WORD_LIMIT]
    assert len(contents) == 156
    for a in contents:
        f = word_bubble_endomap(a)
        for k in (1, 2, 3):
            table = word_rank_table(a, k)
            assert len(table) == f.n
            assert _histogram(table) == _histogram(iterate(f, k).table), (a, k)


def test_word_rank_table_refuses_before_allocating(monkeypatch):
    def no_table(*args):
        raise AssertionError("allocated before the refusal")

    monkeypatch.setattr(bubble, "_copies", no_table)
    # the second content's count is C(10^9 + 2, 2), not (10^9 + 2)! / 10^9!
    for a in ((6, 6, 6), (10 ** 9, 2)):
        assert multinomial(a) > bubble._WORD_HARD_LIMIT
        with pytest.raises(ValueError, match="enumeration limit"):
            word_rank_table(a)
    with pytest.raises(ValueError, match="nonnegative"):
        word_rank_table((2, 1), -1)


def test_word_rank_table_at_the_word_ceiling():
    # one letter with 10^6 - 1 copies, or 10^6 - 1 larger letters: one
    # multiset per gap count, built without a word of that length
    for a in ((1, 999999), (999999, 1)):
        assert multinomial(a) == bubble._WORD_HARD_LIMIT
        table = word_rank_table(a)
        assert len(table) == bubble._WORD_HARD_LIMIT
        sizes = _histogram(table)
        assert Fraction(sum(s * s * c for s, c in sizes.items()),
                        len(table)) == word_degree_formula(a)
