"""Nibble sort (permutations and binary words) and chip-firing."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from noninv.endo import are_pseudoconjugate, degree, fiber_histogram
from noninv.nibble import (
    BinaryDomain,
    binary_degree,
    chip_endomap,
    chip_fire,
    chip_two_preimage_words,
    expected_binary_histogram,
    format_bits,
    nibble,
    nibble_binary,
    nibble_binary_endomap,
    nibble_degree_formula,
    nibble_degree_limit,
    nibble_endomap,
    parse_bits,
)


def test_nibble_examples():
    assert nibble((1, 2, 3)) == (1, 2, 3)
    assert nibble((1, 3, 2)) == (1, 2, 3)
    assert nibble((3, 1, 2)) == (1, 3, 2)
    assert nibble((2, 3, 1)) == (2, 1, 3)
    for bad in [(1, 1, 2), (0, 1), (1, 2, 4)]:
        with pytest.raises(ValueError):
            nibble(bad)


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
    hist = fiber_histogram(nibble_endomap(3))
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
    assert nibble_binary(parse_bits("001110")) == parse_bits("001101")
    assert nibble_binary(parse_bits("010101")) == parse_bits("001101")
    assert nibble_binary(parse_bits("00011")) == parse_bits("00011")
    assert nibble_binary(parse_bits("10")) == parse_bits("01")


def test_chip_fire_examples():
    assert chip_fire(parse_bits("110")) == parse_bits("101")
    assert chip_fire(parse_bits("00")) == parse_bits("10")
    assert chip_fire(parse_bits("11")) == parse_bits("10")
    with pytest.raises(ValueError):
        chip_fire(())
    for bad in [(0, 2, 0), (0, -1), (1, 0, 3)]:
        with pytest.raises(ValueError):
            chip_fire(bad)


def test_binary_domain_codec():
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


def test_bits_strings():
    assert format_bits(parse_bits("01101")) == "01101"
    with pytest.raises(ValueError):
        parse_bits("012")


def test_degrees_are_three_halves():
    for n in range(2, 11):
        assert binary_degree("nib", n) == Fraction(3, 2)
        assert binary_degree("chi", n) == Fraction(3, 2)


def test_histograms_and_pseudoconjugacy():
    for n in range(2, 11):
        nib = nibble_binary_endomap(n)
        chi = chip_endomap(n)
        want = expected_binary_histogram(n)
        assert fiber_histogram(nib).counts == want
        assert fiber_histogram(chi).counts == want
        assert are_pseudoconjugate(nib, chi)
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


def test_stabilization_is_abelian():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 11)
        w = tuple(rng.randrange(2) for _ in range(n))
        baseline = chip_fire(w)
        for _ in range(5):
            assert chip_fire(w, pick=rng.choice) == baseline


def test_binary_degree_guards():
    with pytest.raises(ValueError):
        binary_degree("bogus", 3)
    with pytest.raises(ValueError, match="limit"):
        binary_degree("nib", 25)
    with pytest.warns(UserWarning, match="theorem scope"):
        assert binary_degree("nib", 1) == 1
    with pytest.warns(UserWarning, match="theorem scope"):
        assert binary_degree("chi", 1) == 1
