"""Nibble sort (permutations and binary words) and chip-firing."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from noninv import nibble as nibble_module
from noninv.endo import FiberHistogram, degree
from noninv.nibble import (
    _BINARY_HARD_LIMIT,
    BinaryDomain,
    binary_degree,
    binary_rank_table,
    chip_endomap,
    chip_fire,
    chip_rank_table,
    chip_two_preimage_words,
    expected_binary_histogram,
    nibble_binary,
    nibble_binary_endomap,
    nibble_degree_formula,
    nibble_degree_limit,
    nibble_endomap,
    nibble_rank_table,
)


def test_nibble_examples():
    nibble = nibble_module._nibble
    assert nibble((1, 2, 3)) == (1, 2, 3)
    assert nibble((1, 3, 2)) == (1, 2, 3)
    assert nibble((3, 1, 2)) == (1, 3, 2)
    assert nibble((2, 3, 1)) == (2, 1, 3)


def test_formula_small_values():
    assert nibble_degree_formula(1) == 1
    assert nibble_degree_formula(2) == 2
    assert nibble_degree_formula(3) == 2
    assert nibble_degree_formula(4) == Fraction(23, 12)
    with pytest.raises(ValueError):
        nibble_degree_formula(0)


def test_formula_matches_brute_force():
    for n in range(1, 7):
        assert nibble_degree_formula(n) == degree(nibble_endomap(n))


def test_s3_fibers():
    hist = FiberHistogram.from_map(nibble_endomap(3))
    assert sorted(c for c in Counter(nibble_endomap(3).table).values()) == [1, 1, 1, 3]
    assert hist.counts == {0: 2, 1: 3, 3: 1}


def test_limit_value():
    assert nibble_degree_limit() == pytest.approx(4 * math.e - 9)
    assert abs(float(nibble_degree_formula(20)) - nibble_degree_limit()) < 1e-6
    # from n = 3 on the degrees decrease toward the limit from above
    vals = [nibble_degree_formula(n) for n in range(3, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(float(v) > nibble_degree_limit() for v in vals)


def test_binary_nibble_examples():
    assert nibble_binary((0, 0, 1, 1, 1, 0)) == (0, 0, 1, 1, 0, 1)
    assert nibble_binary((0, 1, 0, 1, 0, 1)) == (0, 0, 1, 1, 0, 1)
    assert nibble_binary((0, 0, 0, 1, 1)) == (0, 0, 0, 1, 1)
    assert nibble_binary((1, 0)) == (0, 1)


def test_chip_fire_examples():
    assert chip_fire((1, 1, 0)) == (1, 0, 1)
    assert chip_fire((0, 0)) == (1, 0)
    assert chip_fire((1, 1)) == (1, 0)
    with pytest.raises(ValueError):
        chip_fire(())
    for bad in [(0, 2, 0), (0, -1), (1, 0, 3)]:
        with pytest.raises(ValueError):
            chip_fire(bad)


def _no_enumeration(self):
    raise AssertionError("enumerated a domain above the ceiling")


def test_binary_domain_codec(monkeypatch):
    dom = BinaryDomain(4)
    assert dom.size == 16
    for r in range(16):
        w = dom.unrank(r)
        assert dom.rank(w) == r
    assert dom.rank((1, 0, 1, 1)) == 0b1011
    for n in range(0, 9):
        d = BinaryDomain(n)
        assert list(d.objects()) == [d.unrank(r) for r in range(d.size)]
    with pytest.raises(ValueError):
        dom.rank((0, 1))
    with pytest.raises(ValueError):
        BinaryDomain(-1)
    # words of length 25 are refused before any word is enumerated
    monkeypatch.setattr(BinaryDomain, "objects", _no_enumeration)
    assert BinaryDomain(_BINARY_HARD_LIMIT).size == 1 << 24
    for make in (BinaryDomain, chip_endomap, nibble_binary_endomap):
        with pytest.raises(ValueError, match="enumeration limit"):
            make(_BINARY_HARD_LIMIT + 1)


def test_degrees_are_three_halves():
    for n in range(2, 11):
        assert binary_degree("nib", n) == Fraction(3, 2)
        assert binary_degree("chi", n) == Fraction(3, 2)


def test_histograms_and_pseudoconjugacy():
    for n in range(2, 11):
        nib = nibble_binary_endomap(n)
        chi = chip_endomap(n)
        want = expected_binary_histogram(n)
        hist = FiberHistogram.from_map(nib)
        assert hist.counts == want
        assert FiberHistogram.from_map(chi) == hist  # pseudoconjugate
        # not conjugate: nib keeps fixed points, chi has none
        assert any(i == v for i, v in enumerate(nib.table))
        assert all(i != v for i, v in enumerate(chi.table))


def test_all_fibers_at_most_two():
    for n in range(1, 11):
        for f in (nibble_binary_endomap(n), chip_endomap(n)):
            assert max(Counter(f.table).values()) <= 2


def test_chip_two_preimage_characterization():
    for n in range(2, 13):
        f = chip_endomap(n)
        dom = f.codec
        counts = Counter(f.table)
        observed = {dom.unrank(y) for y, c in counts.items() if c == 2}
        assert observed == chip_two_preimage_words(n)
        assert len(observed) == 2 ** (n - 2)


def _stabilize_in_random_order(word, rng):
    """Chip-firing by its definition: add a chip at the left end, then fire
    an unstable site chosen by rng until every site holds at most one."""
    chips = [word[0] + 1, *word[1:]]
    n = len(chips)
    while True:
        unstable = [i for i in range(n) if chips[i] >= 2]
        if not unstable:
            return tuple(chips)
        i = rng.choice(unstable)
        chips[i] -= 2
        if i > 0:
            chips[i - 1] += 1
        if i + 1 < n:
            chips[i + 1] += 1


def test_stabilization_is_abelian():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 11)
        w = tuple(rng.randrange(2) for _ in range(n))
        baseline = chip_fire(w)
        for _ in range(5):
            assert _stabilize_in_random_order(w, rng) == baseline


def test_binary_degree_guards(monkeypatch):
    with pytest.raises(ValueError):
        binary_degree("bogus", 3)
    with monkeypatch.context() as m:
        m.setattr(BinaryDomain, "objects", _no_enumeration)
        with pytest.raises(ValueError, match="limit"):
            binary_degree("nib", 25)
    with pytest.warns(UserWarning, match="theorem scope"):
        assert binary_degree("nib", 1) == 1
    with pytest.warns(UserWarning, match="theorem scope"):
        assert binary_degree("chi", 1) == 1


def test_rank_kernels_match_object_maps():
    for n in range(1, 17):
        assert list(nibble_rank_table(n)) == list(nibble_binary_endomap(n).table)
        assert list(chip_rank_table(n)) == list(chip_endomap(n).table)


def _no_array(*args):
    raise AssertionError("allocated a table above the ceiling")


def test_rank_kernels_refuse_sizes_before_allocating(monkeypatch):
    monkeypatch.setattr(nibble_module, "array", _no_array)
    for kernel in (nibble_rank_table, chip_rank_table):
        with pytest.raises(ValueError, match="tabulation range"):
            kernel(0)
        with pytest.raises(ValueError, match="enumeration limit"):
            kernel(_BINARY_HARD_LIMIT + 1)


def test_codec_and_kernels_refuse_length_25_alike(monkeypatch):
    monkeypatch.setattr(nibble_module, "array", _no_array)
    monkeypatch.setattr(BinaryDomain, "objects", _no_enumeration)
    messages = set()
    for make in (BinaryDomain, chip_rank_table, nibble_rank_table):
        with pytest.raises(ValueError) as refused:
            make(_BINARY_HARD_LIMIT + 1)
        messages.add(str(refused.value))
    assert messages == {"words of length 25 exceed the enumeration limit n <= 24"}


def test_binary_rank_table_dispatch():
    assert list(binary_rank_table("nib", 5)) == list(nibble_rank_table(5))
    assert list(binary_rank_table("chi", 5)) == list(chip_rank_table(5))
    with pytest.raises(ValueError, match="unknown binary map"):
        binary_rank_table("bogus", 3)
    with pytest.warns(UserWarning, match="theorem scope"):
        assert list(binary_rank_table("chi", 1)) == [1, 0]


def test_scope_warning_points_at_the_caller():
    for call in (binary_degree, binary_rank_table):
        with pytest.warns(UserWarning, match="theorem scope") as record:
            call("chi", 1)
        assert [w.filename for w in record] == [__file__]
