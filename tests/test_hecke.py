import itertools
import random
from array import array
from fractions import Fraction
from math import factorial

import pytest

from noninv.bubble import bubble_sort
from noninv import hecke
from noninv.endo import (FiberHistogram, collisions, compose_tables, degree,
                         is_constant, iterate)
from noninv.hecke import (
    HeckeWord,
    ScanReport,
    bubble_word,
    conjecture2_scan,
    demazure,
    hecke_apply,
    hecke_endomap,
    hecke_rank_table,
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
    for n in (3, 5, 7):
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


def _random_words(rng):
    # seeded words over every n <= 6 and length <= 30, and one of 100 letters
    for n in range(1, 7):
        for _ in range(50):
            length = rng.randint(0, 30) if n > 1 else 0
            yield HeckeWord(n, tuple(rng.randint(1, n - 1)
                                     for _ in range(length)))
    yield HeckeWord(6, tuple(rng.randint(1, 5) for _ in range(100)))


def test_endomap_matches_public_apply():
    # the endomap tabulates the reduced word and skips the per-point
    # checks; its table must equal the unreduced word applied point by point
    fixed = [word for n in range(1, 6) for word in (
        bubble_word(n), t_alt_word(n),
        HeckeWord(n, tuple(range(n - 1, 0, -1)) * 2))]
    for word in fixed + list(_random_words(random.Random(27))):
        dom = permutation_domain(word.n)
        want = tuple(dom.rank(hecke_apply(word, pi)) for pi in dom.objects())
        assert hecke_endomap(word).table == want, (word.n, word.gens)


def test_rank_table_is_the_endomap_in_lex_rank_order():
    # the codec ranks S_n in lex order too, so the tables agree entry for entry
    fixed = [make(n) for n in range(1, 8)
             for make in (bubble_word, t_alt_word, t_tla_word)]
    for word in fixed + list(_random_words(random.Random(29))):
        table = hecke_rank_table(word)
        assert isinstance(table, array) and table.typecode == "I"
        assert tuple(table) == hecke_endomap(word).table, (word.n, word.gens)


def test_rank_table_histograms_equal_the_endomaps_at_n_8():
    for word in (bubble_word(8), t_alt_word(8), t_tla_word(8),
                 HeckeWord(8, (3, 1, 4, 1, 5, 2, 6, 5)), HeckeWord(8, ())):
        assert (FiberHistogram.from_table(hecke_rank_table(word))
                == FiberHistogram.from_map(hecke_endomap(word))), word.gens


def test_endomap_applies_the_reduced_word(monkeypatch):
    word = HeckeWord(4, (1, 2) * 50)
    applied = set()

    def recorded(gens, pi):
        applied.add(gens)
        return real(gens, pi)

    real = hecke._hecke_apply
    monkeypatch.setattr(hecke, "_hecke_apply", recorded)
    hecke_endomap(word)
    assert applied == {(1, 2, 1)}


def _inversions(w):
    return sum(a > b for a, b in itertools.combinations(w, 2))


def test_demazure_keeps_a_reduced_word_of_its_product():
    assert demazure(HeckeWord(3, (1, 1, 2, 1, 2, 2))) == ((1, 2, 1), (3, 2, 1))
    assert demazure(HeckeWord(1, ())) == ((), (1,))
    for word in _random_words(random.Random(28)):
        n = word.n
        kept, w = demazure(word)
        assert len(kept) == _inversions(w) <= n * (n - 1) // 2
        assert demazure(HeckeWord(n, kept)) == (kept, w)
        # the word sorts the reversal w0 to w0 w, the complement of w
        image = hecke_apply(word, tuple(range(n, 0, -1)))
        assert tuple(n + 1 - x for x in image) == w


def _generator_table_scan(n, max_word_length):
    """The scan by generator tables, the oracle of test_scan_equals_generator_table_oracle.

    Each generator is tabulated once, each word's table is folded from them
    and operators are deduplicated by their full table, so no word is
    reduced.
    """
    dom = permutation_domain(n)
    generators = {i: tuple(dom.rank(hecke_apply(HeckeWord(n, (i,)), pi))
                           for pi in dom.objects())
                  for i in range(1, n)}

    def table_of(gens):
        # t_{i_1} acts first, so each later generator is composed after it
        out = generators[gens[0]]
        for i in gens[1:]:
            out = compose_tables(generators[i], out)
        return out

    def table_degree(table):
        return Fraction(collisions(table), len(table))

    lo = table_degree(table_of(bubble_word(n).gens))
    hi = table_degree(table_of(t_tla_word(n).gens))
    report = ScanReport(bubble_degree=lo, tla_degree=hi)
    words = itertools.chain(
        (bubble_word(n).gens, t_tla_word(n).gens),
        *(itertools.product(range(1, n), repeat=length)
          for length in range(1, max_word_length + 1)))
    seen = set()
    for gens in words:
        if not set(gens) >= set(range(1, n)):
            continue
        table = table_of(gens)
        if table in seen:
            continue
        seen.add(table)
        d = table_degree(table)
        if not lo <= d <= hi:
            report.violations.append({"word": gens, "degree": d})
    report.distinct_operators = len(seen)
    return report


def _fields(report):
    return {name: getattr(report, name) for name in ScanReport.__slots__}


@pytest.mark.parametrize("n, length", [(2, 3), (3, 4), (3, 6), (4, 6),
                                       (5, 6), (6, 5), (4, 8), (5, 8)])
def test_scan_equals_generator_table_oracle(monkeypatch, n, length):
    # the two endpoints are built from their words (at n = 2 one word, built
    # twice), n - 2 compositions each, and every product of length 1 to
    # length by one composition from its parent; no object map is built
    builds, compositions = [], []

    def counted(word):
        builds.append(word.gens)
        return real_build(word)

    def counted_compose(ft, gt):
        compositions.append(len(gt))
        return real_compose(ft, gt)

    def refuse(word):
        raise AssertionError("object map built")

    real_build, real_compose = hecke.hecke_rank_table, hecke.compose_tables
    monkeypatch.setattr(hecke, "hecke_rank_table", counted)
    monkeypatch.setattr(hecke, "compose_tables", counted_compose)
    monkeypatch.setattr(hecke, "hecke_endomap", refuse)
    report = conjecture2_scan(n, length)
    assert _fields(report) == _fields(_generator_table_scan(n, length))
    assert builds == [bubble_word(n).gens, t_tla_word(n).gens]
    products = sum(1 <= _inversions(w) <= length
                   for w in itertools.permutations(range(n)))
    assert len(compositions) == products + 2 * (n - 2)
    assert set(compositions) == {factorial(n)}


def test_scan_refuses_s8_before_any_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("table built before the refusal")

    for name in ("hecke_rank_table", "generator_rank_table", "compose_tables"):
        monkeypatch.setattr(hecke, name, refuse)
    with pytest.raises(ValueError, match=r"^scan of S_8 exceeds the limit "
                                         r"n <= 7$"):
        conjecture2_scan(8, 1)


@pytest.mark.parametrize("n, full_support", [(2, 1), (3, 3), (4, 13), (5, 71),
                                             (6, 461), (7, 3447)])
def test_scan_reaches_the_whole_monoid(n, full_support):
    # the longest product has n(n-1)/2 letters, so this length reaches every
    # full-support operator; the word loop would visit 5^15 words at n = 6
    report = conjecture2_scan(n, n * (n - 1) // 2)
    assert report.distinct_operators == full_support
    assert all(v["degree"] > report.bubble_degree for v in report.violations)
