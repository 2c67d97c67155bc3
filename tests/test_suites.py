"""Every verification suite can fail: a perturbed closed form fails a check.

Each case runs one suite at a small size with the closed form it checks
moved off its true value, and expects a named failed check whose detail
carries both compared values.  The one check exempt by design is the hecke
"degree range scan (report only)", which reports a count and always passes.
"""

import inspect

import pytest

from noninv import (bubble, cli, extremal, hecke, nibble, solitaire, stacksort,
                    suites)


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _minus_one(real):
    return lambda *args: real(*args) - 1


def _no_lane_holds(real):
    return lambda fcols, gcols, lanes: ([False] * lanes, [False] * lanes)


def _every_lane_fails(real):
    return lambda cols, k, lanes: k * lanes


def _one_more_fiber_of_size_one(real):
    return lambda n: {s: c + (s == 1) for s, c in real(n).items()}


def _base_degree_off_at_b5(real):
    def perturbed(spec, r=1):
        return real(spec, r) + (spec == extremal.tree_spec(5, 2) and r == 1)
    return perturbed


_CASES = [
    pytest.param(lambda: suites.thm1(max_n=3, k=2),
                 bubble, "bubble_degree_formula", _plus_one,
                 "iterated pass degree n=1 k=1", "1/1 vs 2/1", id="thm1"),
    pytest.param(lambda: suites.moments(max_n=3, m=2, degree_max_n=3),
                 bubble, "bubble_moment", _plus_one,
                 "fiber moment n=1 m=1", "1/1 vs 2/1", id="moments"),
    pytest.param(lambda: suites.lem2(n=3, k=1),
                 bubble, "bubble_preimage_count", _plus_one,
                 "fiber sizes match closed form n=3 k=1",
                 "6 mismatches over 6 targets; first at rank 0: 4 vs 5",
                 id="lem2"),
    pytest.param(lambda: suites.words(max_n=3, heavy=()),
                 bubble, "word_degree_formula", _plus_one,
                 "word degree content=(1, 1)", "2/1 vs 3/1", id="words"),
    pytest.param(lambda: suites.thm4(max_n=2),
                 nibble, "nibble_degree_formula", _plus_one,
                 "single-swap degree n=1", "1/1 vs 2/1", id="thm4"),
    pytest.param(lambda: suites.binary32(max_n=2),
                 nibble, "expected_binary_histogram",
                 _one_more_fiber_of_size_one,
                 "degree 3/2 and histogram n=2",
                 "degrees 3/2, 3/2 vs 3/2; histograms {0: 1, 1: 2, 2: 1}, "
                 "{0: 1, 1: 2, 2: 1} vs {0: 1, 1: 3, 2: 1}", id="binary32"),
    pytest.param(lambda: suites.stack(max_n=3),
                 stacksort, "catalan", _minus_one,
                 "degree within the Catalan bound n=1", "d_1 = 1/1, C_1 = 0",
                 id="stack"),
    pytest.param(lambda: suites.thm5(max_n=6),
                 solitaire, "max_preimage_bound", _minus_one,
                 "max fiber within bound n=3", "max 2 <= 1", id="thm5"),
    pytest.param(lambda: suites.thm6(max_n=3),
                 solitaire, "carolina_degree", _plus_one,
                 "brute force agrees n=2", "1/1 vs 2/1", id="thm6"),
    pytest.param(lambda: suites.thm7(samples=3),
                 extremal, "check_theorem7_lanes", _no_lane_holds,
                 "random pairs n=4", "3 failures in 3", id="thm7"),
    pytest.param(lambda: suites.thm7_exhaustive(n=2),
                 extremal, "check_theorem7_lanes", _no_lane_holds,
                 "equality only for constant after bijection",
                 "0 equality pairs vs 4; 4 pairs disagree with the predicate",
                 id="thm7_exhaustive"),
    pytest.param(lambda: suites.thm3(max_n=2, k=2),
                 extremal, "theorem3_lane_failures", _every_lane_fails,
                 "powered bound over all maps n=2 k<=2",
                 "8 failures over 4 maps", id="thm3"),
    pytest.param(lambda: suites.prop1(k=2),
                 extremal, "stratified_degree", _base_degree_off_at_b5,
                 "engine equals stratified b=5 k=2",
                 "deg=19/9 iterate=143/18 vs stratified deg=28/9 "
                 "iterate=143/18", id="prop1"),
    pytest.param(lambda: suites.hecke_odd(max_n=3, scans=()),
                 hecke, "updown_count", _plus_one,
                 "image size is the zigzag number n=3", "2 vs 3",
                 id="hecke_odd"),
]


def test_every_verify_suite_has_a_perturbed_case():
    ids = {case.id for case in _CASES}
    assert ids == set(cli._SUITES)


@pytest.mark.parametrize("run, module, name, perturb, check, detail", _CASES)
def test_perturbed_closed_form_fails_with_both_values(
        monkeypatch, run, module, name, perturb, check, detail):
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    failed = {c["name"]: c["detail"] for c in run() if not c["ok"]}
    assert failed.get(check) == detail, failed


@pytest.mark.parametrize("name", sorted(cli._SUITES))
def test_verify_flags_are_suite_keywords_with_defaults_in_bounds(name):
    # cmd_verify passes each given flag as a keyword; a flag left out keeps
    # the suite's default, which must lie within the flag's bounds
    params = inspect.signature(getattr(suites, name)).parameters
    for flag, bounds in cli._SUITES[name].items():
        assert params[flag].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if bounds is not None:
            lo, hi, *force_limit = bounds
            assert lo <= params[flag].default <= hi, flag
            # a force_limit is checked only on a given flag, so the default
            # must lie at or under it
            assert all(params[flag].default <= f for f in force_limit), flag


def test_hecke_odd_builds_each_operator_once(monkeypatch):
    # T_alt as a rank table at every n, and T_tla beside it at n = 5 and 7,
    # where the intertwining is checked on their tables, never point by
    # point; no object map is built
    builds = []

    def counted(word):
        builds.append((word.n, word.gens))
        return real(word)

    def refuse(*args):
        raise AssertionError("object map built or hecke_apply called")

    real = hecke.hecke_rank_table
    monkeypatch.setattr(hecke, "hecke_rank_table", counted)
    for name in ("hecke_endomap", "hecke_apply"):
        monkeypatch.setattr(hecke, name, refuse)
    checks = suites.hecke_odd(max_n=7, scans=())
    assert all(c["ok"] for c in checks), checks
    assert sorted(builds) == sorted(
        [(n, hecke.t_alt_word(n).gens) for n in range(1, 8)]
        + [(n, hecke.t_tla_word(n).gens) for n in (5, 7)])


def test_hecke_odd_intertwining_can_fail(monkeypatch):
    # with T_tla replaced by the bubble pass the tables no longer intertwine
    # and the degrees differ
    monkeypatch.setattr(hecke, "t_tla_word", hecke.bubble_word)
    failed = {c["name"]: c["detail"]
              for c in suites.hecke_odd(max_n=5, scans=()) if not c["ok"]}
    assert failed == {"reverse-complement intertwining n=5": "pointwise",
                      "alternating operators share a degree n=5": "44/5 vs 7/1"}
