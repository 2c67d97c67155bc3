"""Stack sorting: map behavior, exact degrees, growth bounds."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from noninv import stacksort
from noninv.endo import EndoMap, degree, iterate
from noninv.perms import permutation_domain
from noninv.stacksort import (
    a10_lower_bound_ok,
    catalan,
    stack_degree,
    stack_fibers,
    superadditivity_failures,
)
from oracles import stack_sort, stack_sort_recursive


def test_stack_sort_known_values():
    assert stack_sort((4, 1, 6, 3, 5, 2)) == (1, 4, 3, 2, 5, 6)
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert stack_sort(()) == ()


def test_recursion_matches_stack_pass():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            assert stack_sort(p) == stack_sort_recursive(p)


def test_n_minus_one_passes_sort():
    for n in range(2, 8):
        dom = permutation_domain(n)
        f = EndoMap.from_function(dom, stack_sort)
        g = iterate(f, n - 1)
        target = dom.rank(tuple(range(1, n + 1)))
        assert all(v == target for v in g.table)


def test_small_degrees_frozen():
    assert stack_degree(1) == 1
    assert stack_degree(2) == 2
    assert stack_degree(3) == Fraction(13, 3)


def test_degree_agrees_with_generic_engine():
    for n in range(1, 7):
        f = EndoMap.from_function(permutation_domain(n), stack_sort)
        assert stack_degree(n) == degree(f)


def test_fibers_bounded_by_catalan():
    for n in range(1, 9):
        fibers = stack_fibers(n)
        assert max(fibers.values()) <= catalan(n)
        # identity collects every stack-sortable permutation
        assert fibers[bytes(range(1, n + 1))] == max(fibers.values())


def test_catalan_values():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    with pytest.raises(ValueError):
        catalan(-1)


def test_fibers_match_one_pass_per_permutation():
    # the level recursion against the stack run on every permutation
    for n in range(1, 9):
        fibers = stack_fibers(n)
        one_pass = Counter(bytes(stack_sort(p))
                           for p in permutations(range(1, n + 1)))
        assert fibers == one_pass
        assert sum(fibers.values()) == factorial(n)
        assert all(type(image) is bytes for image in fibers)


def test_limit_guard(monkeypatch):
    # S_11 is refused before the first level of images is built
    def no_enumeration(*args):
        raise AssertionError("enumerated S_n above the ceiling")

    monkeypatch.setattr(stacksort, "_stack_images", no_enumeration)
    for count in (stack_degree, stack_fibers):
        with pytest.raises(ValueError, match="enumeration limit"):
            count(11)


def test_superadditivity_pair_4_4():
    known = {n: stack_degree(n) for n in range(1, 8)}
    assert superadditivity_failures(known) == []
    # d_3 d_3 <= 7 d_7 is the pair (4, 4); a d_7 below d_3^2/7 breaks it
    known[7] = known[3] ** 2 / 8
    assert (4, 4) in superadditivity_failures(known)


def test_a10_bound_is_exact():
    # 1.12462^10 * 100 = 323.6368..., so the verdict must flip there
    assert not a10_lower_bound_ok(Fraction(323))
    assert a10_lower_bound_ok(Fraction(324))
