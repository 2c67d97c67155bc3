import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from noninv import perms
from noninv.endo import EndoMap, compose
from noninv.perms import (
    _t,
    is_perm,
    lmax,
    permutation_domain,
    reverse_complement,
    tail_length,
)
from oracles import (from_inversion_table, inversion_table, perm_rank,
                     perm_unrank)


def test_inversion_table_examples():
    assert inversion_table((4, 1, 6, 3, 5, 2)) == (1, 4, 2, 0, 1, 0)
    assert inversion_table((1, 4, 3, 5, 2, 6)) == (0, 3, 1, 0, 0, 0)
    assert inversion_table((1, 2, 3, 4)) == (0, 0, 0, 0)


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


def test_apply_t():
    assert _t((2, 1, 3), 1) == (1, 2, 3)
    assert _t((1, 2, 3), 1) == (1, 2, 3)  # ascents are left alone


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


def test_domain_is_cached_and_checks_input(monkeypatch):
    assert permutation_domain(4) is permutation_domain(4)
    with pytest.raises(ValueError):
        permutation_domain(3).rank((1, 2))
    with pytest.raises(ValueError):
        permutation_domain(3).rank((1, 1, 2))
    dom = permutation_domain(4)
    for bad in [(1, 2, 3), (1, 2, 3, 4, 5), (1, 2, 2, 4), (0, 1, 2, 3),
                (2, 3, 4, 5), (), "1234"]:
        with pytest.raises(ValueError):
            dom.rank(bad)
    # a list is accepted as the permutation it spells
    assert dom.rank([4, 3, 2, 1]) == dom.rank((4, 3, 2, 1))
    # S_11 is refused before any permutation is enumerated
    def no_enumeration(n):
        raise AssertionError(f"enumerated S_{n}")

    monkeypatch.setattr(perms, "_rank_order", no_enumeration)
    for make in (perms.PermutationDomain, permutation_domain):
        with pytest.raises(ValueError, match="enumeration limit"):
            make(perms._PERM_HARD_LIMIT + 1)


def test_domain_cache_keeps_one_domain():
    # a sweep over n holds one S_n at a time
    for n in range(8):
        permutation_domain(n)
    assert permutation_domain.cache_info().currsize == 1
    assert permutation_domain(4) is permutation_domain(4)
    # a map over an evicted codec still composes with one over its rebuild
    f = EndoMap.from_function(permutation_domain(4), lambda pi: _t(pi, 1))
    permutation_domain(3)
    g = EndoMap.from_function(permutation_domain(4), lambda pi: _t(pi, 2))
    assert f.codec is not g.codec
    fg = EndoMap.from_function(permutation_domain(4), lambda pi: _t(_t(pi, 2), 1))
    assert compose(f, g).table == fg.table


def test_endomap_over_permutation_domain():
    dom = permutation_domain(3)
    f = EndoMap.from_function(dom, lambda pi: _t(pi, 1))
    assert dom.unrank(f.table[dom.rank((2, 1, 3))]) == (1, 2, 3)
    assert dom.unrank(f.table[dom.rank((1, 3, 2))]) == (1, 3, 2)


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
