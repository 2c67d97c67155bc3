import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from noninv.endo import EndoMap
from noninv.perms import (
    apply_t,
    descents,
    from_inversion_table,
    identity_perm,
    inversion_table,
    is_perm,
    lmax,
    perm_rank,
    perm_unrank,
    permutation_domain,
    reverse_complement,
    tail_length,
)


def test_inversion_table_examples():
    assert inversion_table((4, 1, 6, 3, 5, 2)) == (1, 4, 2, 0, 1, 0)
    assert inversion_table((1, 4, 3, 5, 2, 6)) == (0, 3, 1, 0, 0, 0)
    assert inversion_table(identity_perm(4)) == (0, 0, 0, 0)


def test_inversion_table_round_trip_exhaustive():
    for n in range(0, 7):
        for pi in itertools.permutations(range(1, n + 1)):
            assert from_inversion_table(inversion_table(pi)) == pi


def test_lmax_counts_zero_entries():
    for pi in itertools.permutations(range(1, 7)):
        assert lmax(pi) == inversion_table(pi).count(0)
    assert lmax((4, 1, 6, 3, 5, 2)) == 2


def test_tail_length_examples():
    assert tail_length((2, 3, 1, 4, 5)) == 2
    assert tail_length((2, 3, 1, 5, 4)) == 0
    assert tail_length((1, 2, 3, 4, 5)) == 5
    assert tail_length(()) == 0


def test_descents_and_apply_t():
    assert descents((4, 1, 6, 3, 5, 2)) == (1, 3, 5)
    assert apply_t((2, 1, 3), 1) == (1, 2, 3)
    assert apply_t((1, 2, 3), 1) == (1, 2, 3)  # ascents are left alone
    with pytest.raises(ValueError):
        apply_t((2, 1), 2)
    with pytest.raises(ValueError):
        apply_t((2, 1), 0)


def test_reverse_complement_is_involution():
    assert reverse_complement((2, 1, 3)) == (1, 3, 2)
    for pi in itertools.permutations(range(1, 6)):
        assert reverse_complement(reverse_complement(pi)) == pi
        assert is_perm(reverse_complement(pi))


def test_rank_unrank_round_trip():
    for n in range(0, 6):
        seen = set()
        for r in range(factorial(n)):
            pi = perm_unrank(r, n)
            assert perm_rank(pi) == r
            seen.add(pi)
        assert len(seen) == factorial(n)
    with pytest.raises(ValueError):
        perm_unrank(factorial(4), 4)


@given(st.permutations(list(range(1, 9))))
def test_rank_round_trip_property(pi):
    pi = tuple(pi)
    assert perm_unrank(perm_rank(pi), len(pi)) == pi


def test_domain_agrees_with_arithmetic_rank():
    dom = permutation_domain(5)
    assert dom.size == 120
    for r in range(120):
        pi = dom.unrank(r)
        assert perm_unrank(r, 5) == pi
        assert dom.rank(pi) == r
    assert len(list(dom.objects())) == 120


def test_domain_is_cached_and_checks_input():
    assert permutation_domain(4) is permutation_domain(4)
    with pytest.raises(ValueError):
        permutation_domain(3).rank((1, 2))
    with pytest.raises(ValueError):
        permutation_domain(3).rank((1, 1, 2))
    dom = permutation_domain(4)
    dom.rank((1, 2, 3, 4))  # materialized from here on
    for bad in [(1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 2, 4), (0, 1, 2, 3),
                (2, 3, 4, 5), (), "1234"]:
        with pytest.raises(ValueError):
            dom.rank(bad)
    # a list is accepted as the permutation it spells
    assert dom.rank([4, 3, 2, 1]) == dom.rank((4, 3, 2, 1))


def test_endomap_over_permutation_domain():
    dom = permutation_domain(3)
    f = EndoMap.from_function(dom, lambda pi: apply_t(pi, 1))
    assert f.apply((2, 1, 3)) == (1, 2, 3)
    assert f.apply((1, 3, 2)) == (1, 3, 2)


def test_materialized_order_is_inversion_table_order():
    # the codec builds S_n level by level; rank order is lex order of the
    # inversion table, as from_inversion_table spells it out
    from noninv.perms import PermutationDomain
    for n in range(0, 9):
        ranges = [range(n - j + 1) for j in range(1, n + 1)]
        want = [from_inversion_table(e) for e in itertools.product(*ranges)]
        dom = PermutationDomain(n)
        assert list(dom.objects()) == want
        assert [dom.rank(pi) for pi in want] == list(range(len(want)))
