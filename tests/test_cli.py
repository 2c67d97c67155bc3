"""End-to-end tests of the command-line interface."""

import argparse
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

from noninv import (bubble, cli, extremal, hecke, nibble, solitaire,
                    stacksort, suites)
from noninv.endo import EndoMap


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--no-timestamp")
    return code, json.loads(out)


def test_degree_bubble_frozen(capsys):
    code, payload = run_json(capsys, "degree", "bubble", "--n", "3")
    assert code == 0
    assert payload["degree"] == "10/3"
    assert payload["degree_decimal"] == "3.33333333333"
    assert payload["histogram"] == {"0": 4, "2": 1, "4": 1}
    assert payload["domain_size"] == 6


def test_degree_known_values(capsys):
    code, payload = run_json(capsys, "degree", "nibble_bin", "--n", "8")
    assert code == 0 and payload["degree"] == "3/2"
    assert payload["matches_three_halves_histogram"] is True
    code, payload = run_json(capsys, "degree", "carolina", "--n", "3")
    assert code == 0 and payload["degree"] == "3/2"
    code, payload = run_json(capsys, "degree", "tree", "--b", "5", "--k", "2")
    assert code == 0
    assert payload["degree"] == "19/9"
    assert payload["iterate_degree"] == "143/18"
    assert payload["branching"] == [5, 2, 2]


def test_degree_hecke_defaults_to_full_pass(capsys):
    code, payload = run_json(capsys, "degree", "hecke", "--n", "3")
    assert code == 0
    assert payload["word"] == [1, 2]
    assert payload["degree"] == "10/3"
    code, payload = run_json(capsys, "degree", "hecke", "--n", "3",
                             "--word", "1,2,1")
    assert payload["degree"] == "6/1"
    assert payload["image_size"] == 1


def test_byte_identical_without_timestamp(capsys):
    _, a = run(capsys, "degree", "bubble_iter", "--n", "4", "--k", "2",
               "--no-timestamp")
    _, b = run(capsys, "degree", "bubble_iter", "--n", "4", "--k", "2",
               "--no-timestamp")
    assert a == b


def test_timestamp_present_by_default(capsys):
    _, out = run(capsys, "degree", "carolina", "--n", "4")
    payload = json.loads(out)
    assert "timestamp" in payload
    del payload["timestamp"]
    _, clean = run_json(capsys, "degree", "carolina", "--n", "4")
    assert payload == clean


def test_csv_format(capsys):
    code, out = run(capsys, "degree", "bubble", "--n", "3", "--format", "csv",
                    "--no-timestamp")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "degree,10/3" in lines
    assert "histogram.0,4" in lines


def test_table_format(capsys):
    code, out = run(capsys, "degree", "carolina", "--n", "3",
                    "--format", "table", "--no-timestamp")
    assert code == 0
    assert any(line.startswith("degree") and line.rstrip().endswith("3/2")
               for line in out.splitlines())


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["degree", "bogus", "--n", "3"])
    assert exc.value.code == 2
    code, _ = run(capsys, "degree", "hecke", "--n", "3", "--word", "1,x")
    assert code == 2
    code, _ = run(capsys, "search", "ratio", "--n", "3", "--gamma", "1/3")
    assert code == 2


def test_size_limit_needs_force(capsys):
    code, _ = run(capsys, "degree", "bubble", "--n", "9")
    assert code == 2
    err = capsys.readouterr().err
    code, payload = run_json(capsys, "degree", "nibble_bin", "--n", "17",
                             "--force")
    assert code == 0 and payload["degree"] == "3/2"


def test_search_budget_needs_force(capsys):
    code, _ = run(capsys, "search", "ratio", "--n", "8", "--k", "2")
    assert code == 2


def test_verify_suite_passes(capsys):
    code, payload = run_json(capsys, "verify", "lem2", "--n", "5", "--k", "2")
    assert code == 0
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert all(c["ok"] for c in payload["checks"])


def test_verify_failure_exits_1(capsys, monkeypatch):
    # verify dispatches to the suite on the suites module, at its defaults
    def broken(**sizes):
        assert sizes == {}
        return [{"name": "always fails", "ok": False, "detail": "forced"}]

    monkeypatch.setattr(suites, "lem2", broken)
    code, payload = run_json(capsys, "verify", "lem2")
    assert code == 1
    assert payload["ok"] is False and payload["failed"] == 1


def test_verify_stack_suite(capsys, monkeypatch):
    code, payload = run_json(capsys, "verify", "stack", "--max-n", "6")
    assert code == 0 and payload["passed"] == 7
    assert [c["name"] for c in payload["checks"]][-1] == \
        "d_(m-1) d_(n-1) <= (m+n-1) d_(m+n-1)"
    # without --max-n the CLI passes no size, so the suite keeps its default
    seen = []
    monkeypatch.setattr(suites, "stack",
                        lambda **sizes: seen.append(sizes) or [])
    run(capsys, "verify", "stack")
    assert seen == [{}]


def test_verify_passes_the_seed_only_when_given(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(suites, "thm7",
                        lambda **sizes: seen.append(sizes) or [])
    for argv in (("--seed", "-4"), ("--samples", "5"), ()):
        code, _ = run(capsys, "verify", "thm7", *argv)
        assert code == 0
    assert seen == [{"seed": -4}, {"samples": 5}, {}]


def test_verify_prop1_mismatch_is_a_failed_check(capsys, monkeypatch):
    real = extremal.stratified_degree

    def off_by_one_at_b5(spec, r=1):
        d = real(spec, r)
        return d + 1 if spec == extremal.tree_spec(5, 2) and r == 1 else d

    monkeypatch.setattr(extremal, "stratified_degree", off_by_one_at_b5)
    code, payload = run_json(capsys, "verify", "prop1")
    assert code == 1
    assert payload["ok"] is False and payload["failed"] == 1
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert failed == [{"name": "engine equals stratified b=5 k=2", "ok": False,
                       "detail": "deg=19/9 iterate=143/18 vs stratified "
                                 "deg=28/9 iterate=143/18"}]
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["engine equals stratified b=10 k=2"] == \
        "deg=301/131 iterate=1831/131"


def test_verify_binary32_histogram_mismatch_exits_1(capsys, monkeypatch):
    # binary32 compares the nibble and chip FiberHistograms; a chip map with
    # one point moved at n = 3 has another histogram, and only that fails
    real = nibble.chip_endomap

    def moved_at_3(n):
        f = real(n)
        if n != 3:
            return f
        return EndoMap(f.codec, f.table[-1:] + f.table[1:])

    monkeypatch.setattr(nibble, "chip_endomap", moved_at_3)
    code, payload = run_json(capsys, "verify", "binary32", "--max-n", "3")
    assert code == 1
    assert payload["ok"] is False and payload["failed"] == 1
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert failed == [{
        "name": "degree 3/2 and histogram n=3", "ok": False,
        "detail": "degrees 3/2, 2/1 vs 3/2; histograms {0: 2, 1: 4, 2: 2}, "
                  "{0: 3, 1: 3, 2: 1, 3: 1} vs {0: 2, 1: 4, 2: 2}"}]


def test_verify_thm7_exhaustive_reports_18_equalities(capsys):
    code, payload = run_json(capsys, "verify", "thm7", "--n", "3",
                             "--exhaustive")
    assert code == 0
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["equality only for constant after bijection"] == \
        "18 equality pairs"


def test_search_ratio_witness(capsys):
    code, payload = run_json(capsys, "search", "ratio", "--n", "3", "--k", "2",
                             "--gamma", "2/1")
    assert code == 0
    assert payload["ratio_pow"] == "27/25"
    assert payload["map"] == {"n": 3, "table": [0, 0, 1]}
    assert payload["gamma"] == [2, 0]


def test_sample_shape_and_determinism(capsys):
    args = ("sample", "bulgarian", "--n", "60", "--count", "50",
            "--seed", "9")
    code, a = run_json(capsys, *args)
    _, b = run_json(capsys, *args)
    assert code == 0 and a == b
    assert set(a) == {"command", "system", "n", "samples", "seed", "mean",
                      "stddev"}
    assert a["n"] == 60 and a["samples"] == 50 and a["seed"] == 9
    assert 1.0 <= float(a["mean"]) <= 6.0


@pytest.mark.parametrize("n, count, seed, mean, stddev", [
    ("1000", "100", "1", "2.61", "1.71089792716"),
    ("50", "2000", "0", "2.1585", "0.976142498352"),
    ("3000", "1000", "1", "2.926", "1.83518170542"),
])
def test_sample_payloads_are_pinned(capsys, n, count, seed, mean, stddev):
    # recorded from the plain-scan sampler; the guide rows draw the same
    # partitions from the same rng calls
    code, payload = run_json(capsys, "sample", "bulgarian", "--n", n,
                             "--count", count, "--seed", seed)
    assert code == 0
    assert (payload["mean"], payload["stddev"]) == (mean, stddev)


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the argument check")


@pytest.mark.parametrize("content", ["3000,3000", "20000,20000",
                                     "1000000,1000000"])
@pytest.mark.parametrize("force", [(), ("--force",)])
def test_huge_word_content_exits_2_at_once(capsys, monkeypatch, content,
                                            force):
    # the count was once built in full and formatted into the refusal:
    # C(2*10^6, 10^6) took 43 s, and its 600,000 digits raised ValueError
    # (exit 1) in str()
    monkeypatch.setattr(bubble, "word_rank_table", _refuse)
    t0 = time.perf_counter()
    code = cli.main(["degree", "word_bubble", "--content", content, *force])
    assert time.perf_counter() - t0 < 0.5
    assert code == 2
    assert capsys.readouterr() == (
        "", "error: --content has more than 1000000 words, the hard limit\n")


def test_hecke_word_length_has_a_hard_limit(capsys, monkeypatch):
    word = ",".join(["1", "2"] * 50)
    code, payload = run_json(capsys, "degree", "hecke", "--n", "3",
                             "--word", word)
    assert code == 0 and len(payload["word"]) == cli._HECKE_WORD_LIMIT
    # one letter more is refused before S_n or a table is built
    for name in ("hecke_endomap", "permutation_domain", "hecke_rank_table",
                 "generator_rank_table"):
        monkeypatch.setattr(hecke, name, _refuse)
    for n, letters in ((3, 101), (8, 20000)):
        code = cli.main(["degree", "hecke", "--n", str(n), "--word",
                         ",".join(["1"] * letters)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: --word has {letters} "
                                       "letters, more than the hard limit "
                                       "100\n")


# the first call of real work for each refused row below
_WORK = ((solitaire, "monte_carlo_bulgarian"), (solitaire, "eta_series"),
         (bubble, "bubble_endomap"), (bubble, "bubble_rank_table"),
         (bubble, "word_bubble_endomap"), (bubble, "word_rank_table"),
         (hecke, "hecke_endomap"), (hecke, "hecke_rank_table"),
         (hecke, "generator_rank_table"), (extremal, "all_tables"),
         (extremal, "random_table"), (extremal, "prop1_degrees"),
         (extremal, "build_tree_map"), (extremal, "tree_branching"),
         (stacksort, "stack_fibers"), (nibble, "nibble_endomap"),
         (nibble, "chip_rank_table"), (nibble, "nibble_rank_table"),
         (solitaire, "bulgarian_endomap"), (solitaire, "bulgarian_fibers"),
         (solitaire, "carolina_endomap"),
         (solitaire, "carolina_rank_table"),
         (extremal, "exhaustive_ratio_search"),
         *((suites, name) for name in cli._SUITES))
# the largest size each verify flag accepts; the suite is stubbed, not run
_VERIFY_MAX = [
    ("verify", "thm1", "--max-n", "10"),
    ("verify", "thm1", "--k", "20"),
    ("verify", "moments", "--max-n", "10"),
    ("verify", "moments", "--m", "1000"),
    ("verify", "lem2", "--n", "10"),
    ("verify", "lem2", "--k", "20"),
    ("verify", "words", "--max-n", "32"),
    ("verify", "thm4", "--max-n", "10"),
    ("verify", "binary32", "--max-n", "20"),
    ("verify", "stack", "--max-n", "10", "--force"),
    ("verify", "thm5", "--max-n", "50"),
    ("verify", "thm6", "--max-n", "400"),
    ("verify", "thm7", "--samples", "200000"),
    ("verify", "thm7", "--exhaustive", "--n", "5", "--force"),
    ("verify", "thm3", "--max-n", "7"),
    ("verify", "thm3", "--k", "16"),
    ("verify", "prop1", "--k", "30"),
    ("verify", "hecke_odd", "--max-n", "10"),
]
# flags the suite or system does not read are refused, not ignored
_UNREAD = [
    ("verify", "thm1", "--n", "3"),
    ("verify", "prop1", "--max-n", "4"),
    ("verify", "thm3", "--seed", "7"),
    ("verify", "lem2", "--exhaustive"),
    ("verify", "stack", "--k", "3", "--max-n", "4"),
    ("verify", "thm7", "--n", "3"),
    ("verify", "thm7", "--exhaustive", "--seed", "1"),
    ("verify", "thm7", "--exhaustive", "--samples", "4"),
    ("degree", "stack", "--n", "4", "--k", "3"),
    ("degree", "chip", "--n", "4", "--content", "1,2"),
    ("degree", "bubble", "--n", "4", "--word", "1"),
    ("degree", "bubble", "--n", "4", "--k", "2"),
    ("degree", "tree", "--b", "5", "--n", "3"),
    ("degree", "carolina", "--n", "5", "--b", "7"),
    ("degree", "word_bubble", "--content", "2,1", "--n", "0"),
]
# sizes and lists refused before the map is built
_DEGREE_REFUSED = [
    ("degree", "hecke", "--n", "4", "--word", ""),
    ("degree", "nibble_perm", "--n", "0"),
    ("degree", "nibble_perm", "--n", "9"),
    ("degree", "nibble_perm", "--n", "11", "--force"),
    # the tree's last level once took b's iterated root as a tuple length
    ("degree", "tree", "--b", "1" + "0" * 24),
    ("degree", "tree", "--b", "2", "--k", "1025"),
    ("degree", "tree", "--b", "2", "--k", "4000000"),
    # the word count once took (sum a)! first
    ("degree", "word_bubble", "--content", "1000000000,2", "--force"),
    ("degree", "stack", "--n", "10"),
    ("degree", "chip", "--n", "17"),
    ("degree", "chip", "--n", "25", "--force"),
    ("degree", "nibble_bin", "--n", "25", "--force"),
]
# sizes, iterate orders and --gamma values the search refuses
_SEARCH_REFUSED = [
    ("search", "ratio", "--n", "9", "--force"),
    ("search", "ratio", "--n", "0"),
    ("search", "ratio", "--k", "0"),
    ("search", "ratio", "--k", "33"),
    ("search", "ratio", "--n", "3", "--k", "100000000"),
    ("search", "ratio", "--gamma", "1/0"),
    ("search", "ratio", "--gamma", "-2"),
    ("search", "ratio", "--gamma=-1/2"),
    ("search", "ratio", "--gamma", "513"),
    ("search", "ratio", "--gamma", "1/512"),
    ("search", "ratio", "--n", "3", "--gamma", "1/16777216"),
]
# the largest searches each flag accepts; the search is stubbed, not run
_SEARCH_MAX = [
    ("search", "ratio", "--n", "8", "--force"),
    ("search", "ratio", "--k", "32"),
    ("search", "ratio", "--gamma", "512"),
    ("search", "ratio", "--gamma", "511/256"),
]


def _stub_search(n, k, gamma):
    return extremal.RatioWitness(EndoMap.from_table([0] * n), k,
                                 Fraction(2), Fraction(1))


def _stub_suite(real):
    """A suite that checks its keywords against real's and runs nothing."""
    def stub(**sizes):
        inspect.signature(real).bind(**sizes)  # TypeError on a stray keyword
        return []
    return stub


# sample and series have no --force; where a row reads it, it runs for real
# (test_force_is_refused_where_no_row_reads_it covers degree and verify)
_FORCE = [
    (("sample", "bulgarian", "--force"), 2),
    (("series", "eta", "--force"), 2),
    (("degree", "word_bubble", "--content", "2,1", "--force"), 0),
    (("degree", "bubble", "--n", "5", "--force"), 0),
    (("search", "ratio", "--n", "3", "--force"), 0),
    (("verify", "stack", "--max-n", "3", "--force"), 0),
    (("verify", "thm7", "--exhaustive", "--n", "2", "--force"), 0),
]


@pytest.mark.parametrize("argv, want", [
    (("sample", "bulgarian", "--n", "0"), 2),
    (("sample", "bulgarian", "--n", "-5"), 2),
    (("sample", "bulgarian", "--count", "0"), 2),
    (("sample", "bulgarian", "--count", "-3"), 2),
    (("sample", "bulgarian", "--n", "100001"), 2),
    (("sample", "bulgarian", "--count", "1000001"), 2),
    (("series", "eta", "--n", "-1"), 2),
    (("sample", "bulgarian", "--n", "1", "--count", "1"), 0),
    (("sample", "bulgarian", "--n", "100000", "--count", "1000000"), 0),
    (("series", "eta", "--n", "0"), 0),
    (("series", "eta", "--n", "2000"), 0),
    (("series", "eta", "--n", "2001"), 2),
    (("degree", "bubble", "--n", "0"), 2),
    (("degree", "bubble_iter", "--n", "3"), 2),
    (("degree", "hecke", "--n", "4", "--word", "5"), 2),
    (("degree", "word_bubble", "--content", "0,1"), 2),
    (("degree", "word_bubble", "--content", "3"), 2),
    (("degree", "tree", "--b", "1"), 2),
    (("degree", "tree", "--b", "5", "--k", "1"), 2),
    (("verify", "thm1", "--max-n", "0"), 2),
    (("verify", "thm1", "--k", "0"), 2),
    (("verify", "moments", "--m", "0"), 2),
    (("verify", "lem2", "--n", "0"), 2),
    (("verify", "words", "--max-n", "0"), 2),
    (("verify", "binary32", "--max-n", "1"), 2),
    (("verify", "thm7", "--exhaustive", "--n", "0"), 2),
    (("verify", "thm7", "--samples", "0"), 2),
    (("verify", "thm3", "--max-n", "0"), 2),
    (("verify", "prop1", "--k", "1"), 2),
    (("verify", "hecke_odd", "--max-n", "0"), 2),
    (("degree", "bulgarian", "--n", "51"), 2),
    (("degree", "bulgarian", "--n", "66", "--force"), 2),
    (("degree", "carolina", "--n", "21"), 2),
    (("degree", "carolina", "--n", "25", "--force"), 2),
    # --threads is no option of any command: a usage error
    (("degree", "stack", "--n", "4", "--threads", "2"), 2),
    (("search", "ratio", "--n", "3", "--threads", "2"), 2),
    (("verify", "stack", "--threads", "2"), 2),
    (("degree", "stack", "--n", "0"), 2),
    (("degree", "hecke", "--n", "9"), 2),
    (("degree", "bubble_iter", "--n", "4", "--k", "0"), 2),
    (("degree", "stack", "--n", "4"), 0),
    (("search", "ratio", "--n", "3"), 0),
    (("verify", "stack", "--max-n", "0"), 2),
    (("verify", "stack", "--max-n", "10"), 2),
    (("verify", "stack", "--max-n", "11", "--force"), 2),
    (("verify", "thm7", "--exhaustive", "--n", "5"), 2),
    (("verify", "stack", "--max-n", "3"), 0),
    (("verify", "thm1", "--max-n", "11"), 2),
    (("verify", "thm1", "--k", "21"), 2),
    (("verify", "moments", "--max-n", "11"), 2),
    (("verify", "moments", "--m", "1001"), 2),
    (("verify", "lem2", "--n", "11"), 2),
    (("verify", "lem2", "--k", "21"), 2),
    (("verify", "words", "--max-n", "33"), 2),
    (("verify", "thm4", "--max-n", "11"), 2),
    (("verify", "binary32", "--max-n", "21"), 2),
    (("verify", "thm5", "--max-n", "51"), 2),
    (("verify", "thm6", "--max-n", "401"), 2),
    (("verify", "thm7", "--samples", "200001"), 2),
    (("verify", "thm7", "--exhaustive", "--n", "6", "--force"), 2),
    (("verify", "thm3", "--max-n", "8"), 2),
    (("verify", "thm3", "--k", "17"), 2),
    (("verify", "prop1", "--k", "31"), 2),
    (("verify", "hecke_odd", "--max-n", "11"), 2),
    *((argv, 0) for argv in _VERIFY_MAX[:10]),
    # later rows carry explicit ids, which do not shift when a row goes
    *(pytest.param(argv, 0, id=" ".join(argv)) for argv in _VERIFY_MAX[10:]),
    *(pytest.param(argv, 2, id=" ".join(argv))
      for argv in _UNREAD + _DEGREE_REFUSED + _SEARCH_REFUSED),
    *(pytest.param(argv, 0, id=" ".join(argv))
      for argv in [("degree", "tree", "--b", "2", "--k", "1024"),
                   *_SEARCH_MAX]),
    *(pytest.param(argv, want, id=" ".join(argv)) for argv, want in _FORCE),
])
def test_sample_series_exit_codes(capsys, monkeypatch, argv, want):
    # refused input must exit 2 before any map, sampler or series starts;
    # the largest accepted sizes are checked against a stub, not run
    if want == 2:
        for module, name in _WORK:
            monkeypatch.setattr(module, name, _refuse)
    elif argv in _VERIFY_MAX:
        suite = "thm7_exhaustive" if "--exhaustive" in argv else argv[1]
        monkeypatch.setattr(suites, suite,
                            _stub_suite(getattr(suites, suite)))
    elif argv in _SEARCH_MAX:
        monkeypatch.setattr(extremal, "exhaustive_ratio_search", _stub_search)
    elif "100000" in argv:
        monkeypatch.setattr(solitaire, "monte_carlo_bulgarian",
                            lambda n, samples, rng_seed: (0.0, 0.0))
    elif "2000" in argv:
        monkeypatch.setattr(solitaire, "eta_series", lambda n: [1] * (n + 1))
    try:
        code, _ = run(capsys, *argv, "--no-timestamp")
    except SystemExit as exc:  # argparse refuses an unknown option
        code = exc.code
    assert code == want


@pytest.mark.parametrize("argv, err", [
    (("degree", "stack", "--n", "4", "--k", "3"), "degree stack takes no --k"),
    # a size over its force_limit reads the same in degree and verify
    (("degree", "stack", "--n", "11", "--force"),
     "n 11 exceeds the hard limit 10"),
    (("verify", "stack", "--max-n", "11", "--force"),
     "n 11 exceeds the hard limit 10"),
])
def test_refusal_names_the_flag(capsys, argv, err):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def _parser_of(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _reads_force(row):
    return "force" in row or any(
        bounds is not None and len(bounds) == 3 for bounds in row.values())


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_parser_is_built_from_the_rows(command):
    # a flag added to a row must reach the parser, and the parser may offer
    # no option that no row reads
    _, _, rows = cli._COMMANDS[command]
    actions = _parser_of(command)._actions
    flags = {flag for row in rows.values() for flag in row} - {"force"}
    want = {"--" + flag.replace("_", "-") for flag in flags}
    want |= {"--format", "--no-timestamp"}
    if any(_reads_force(row) for row in rows.values()):
        want.add("--force")
    if command == "verify":
        want.add("--exhaustive")
    if command == "sample":
        want.add("--count")
    options = {o for a in actions for o in a.option_strings}
    assert options - {"-h", "--help"} == want
    assert ("--force" in options) == (command in ("degree", "verify", "search"))
    for action in actions:
        if action.type is not None:
            text = action.dest in ("content", "word", "gamma")
            assert action.type is (str if text else int), action.dest
    (target,) = [a for a in actions if not a.option_strings]
    assert target.choices == sorted(set(rows) - {"thm7_exhaustive"})


@pytest.mark.parametrize("command", ["degree", "verify"])
def test_force_is_refused_where_no_row_reads_it(capsys, monkeypatch,
                                                 command):
    for module, name in _WORK:
        monkeypatch.setattr(module, name, _refuse)
    _, _, rows = cli._COMMANDS[command]
    refused = [t for t, row in rows.items() if not _reads_force(row)]
    # degree tree, and every suite but stack and thm7 --exhaustive
    assert len(refused) == {"degree": 1, "verify": 12}[command]
    for target in refused:
        argv = [command, target, "--force"]
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == \
            f"error: {command} {target} takes no --force\n"


def _boundary_cases():
    """Each int flag of each _COMMANDS row just outside its bounds.

    A flag goes to min - 1 and to max + 1 (with --force where it has a
    force_limit, so only the hard limit refuses it), and to force_limit + 1
    without --force; an unbounded seed has no boundary.
    """
    for command, (_, _, rows) in cli._COMMANDS.items():
        for target, row in rows.items():
            prefix = [command, target.removesuffix("_exhaustive")]
            if target.endswith("_exhaustive"):
                prefix.append("--exhaustive")
            for flag, bounds in row.items():
                if bounds is None or bounds[0] == -inf:
                    continue
                lo, hi, *force_limit = bounds
                option = "--" + flag.replace("_", "-")
                values = [(lo - 1, [])]
                if hi is not None:
                    values.append((hi + 1, ["--force"] if force_limit else []))
                values += [(limit + 1, []) for limit in force_limit]
                for value, force in values:
                    argv = [*prefix, option, str(value), *force]
                    yield pytest.param(argv, id=" ".join(argv))


def _list_cases():
    """--content and --word with huge entries and huge lengths."""
    entries = {"1": "1", "10**30": str(10 ** 30)}
    shapes = [("10**30", 2), *((entry, length) for entry in entries
                               for length in (10 ** 4, 10 ** 5))]
    for flag, prefix in (("--content", ["degree", "word_bubble"]),
                         ("--word", ["degree", "hecke", "--n", "8"])):
        for entry, length in shapes:
            argv = [*prefix, flag, ",".join([entries[entry]] * length)]
            yield pytest.param(argv, id=" ".join(
                [*prefix, flag, f"{entry}x{length}"]))


@pytest.mark.parametrize("argv", [*_boundary_cases(), *_list_cases()])
def test_every_flag_is_refused_just_outside_its_bounds(capsys, monkeypatch,
                                                       argv):
    # generated from the rows, so a row added later is swept too
    for module, name in _WORK:
        monkeypatch.setattr(module, name, _refuse)
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), err
    assert err.startswith("error: ")
    assert elapsed < 0.5


def test_content_refusal_names_the_entry_not_the_whole_content(capsys):
    argv = ["degree", "word_bubble", "--content",
            ",".join(["0"] + ["1"] * 20000)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: content must be positive counts: "
                   "entry 1 of 20001 is 0\n")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("exc", [ValueError, RuntimeError, KeyError])
def test_library_exception_is_an_internal_error(capsys, monkeypatch, exc):
    # exit 1 means only "a check failed", and a refusal exits 2
    def broken(n):
        raise exc("kernel fault")

    monkeypatch.setattr(stacksort, "stack_fibers", broken)
    assert cli.main(["degree", "stack", "--n", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"error: internal error: {exc('kernel fault')!r}\n")


def test_failed_payload_write_is_an_internal_error(capsys, monkeypatch):
    # a closed pipe under the payload is no failed check
    def closed_pipe(text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys.stdout, "write", closed_pipe)
    assert cli.main(["degree", "stack", "--n", "4"]) == 3
    _, err = capsys.readouterr()
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(
        "error: internal error: BrokenPipeError(32, 'Broken pipe')\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_3(unbuffered):
    # with buffered stdout the payload fails on the flush, and the exit
    # flush must not fail again (exit 120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "noninv.cli", "degree", "stack", "--n", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 3, done.stderr
    assert done.stderr.endswith(
        "error: internal error: BrokenPipeError(32, 'Broken pipe')\n")


def test_degree_default_n_needs_no_force():
    # cmd_degree reads n = 5 when --n is left out and checks no default
    for system, bounds in cli._SYSTEMS.items():
        if "n" in bounds:
            lo, hi, force_limit = bounds["n"]
            assert lo <= 5 <= force_limit <= hi, system


# Measures its one child with os.wait4.  A child started straight from the
# test process would report at least the test process's own peak RSS, which
# ru_maxrss carries across fork and exec.
_RSS_LAUNCHER = """\
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
sys.stderr.write(f"{proc.returncode} {usage.ru_maxrss}\\n")
"""


def _peak_rss(*argv):
    """The JSON payload and peak RSS in MB of one CLI child."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m",
         "noninv.cli", *argv, "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, maxrss_kib = map(int, done.stderr.split())
    assert code == 0
    return json.loads(done.stdout), maxrss_kib * 1024 / 1e6


def _modules_after_cli_import():
    """sys.modules of a fresh interpreter that has run import noninv.cli."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, noninv.cli; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_cli_import_starts_no_process_machinery():
    # every command runs in one process, so importing the CLI must not load
    # the process-pool modules
    loaded = _modules_after_cli_import()
    assert not {m for m in loaded
                if m.split(".")[0] in ("multiprocessing", "concurrent")}


def test_cli_import_loads_every_traced_module_and_no_unused_stdlib():
    # each child pays for what it imports: dataclasses (with inspect) and
    # the stdlib modules that only some commands use stay unloaded ...
    loaded = _modules_after_cli_import()
    unused = {"dataclasses", "inspect", "csv", "datetime", "statistics"}
    assert not unused & loaded
    # ... while every module the benchmark's tracer wraps is loaded by the
    # import itself, since the tracer looks its targets up in sys.modules
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"noninv.{module}" for module, _, _ in tracer.TARGETS.values()}
    assert traced <= loaded, sorted(traced - loaded)


def test_sample_peak_rss_is_linear():
    # the quadratic count table peaked at 541 MB for this command
    payload, peak_mb = _peak_rss("sample", "bulgarian", "--n", "3000",
                                 "--count", "10")
    assert payload["n"] == 3000
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


def test_bubble_s10_peak_rss_is_a_third_of_the_object_map():
    # tabulating the object map over S_10 peaked at 837 MB, and the rank
    # table as a list of ints at 177 MB
    payload, peak_mb = _peak_rss("degree", "bubble", "--n", "10", "--force")
    assert payload["degree"] == "22/1" and payload["domain_size"] == 3628800
    assert "engine_degree" not in payload
    assert peak_mb < 120, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize("argv, degree, points, ceiling_mb", [
    # over the materialized S_8 and S_9 these peaked at 24.7 and 103.7 MB;
    # from generator tables at 18.0 and 24.5 MB (2 cores, Python 3.11)
    (("--n", "8", "--word", "3,1,4,1,5,2,6,5"), "1552/45", 40320, 21),
    (("--n", "9", "--force"), "55/3", 362880, 35),
])
def test_hecke_peak_rss_holds_rank_tables(argv, degree, points, ceiling_mb):
    payload, peak_mb = _peak_rss("degree", "hecke", *argv)
    assert payload["degree"] == degree and payload["domain_size"] == points
    assert peak_mb < ceiling_mb, f"peak RSS {peak_mb:.1f} MB"


def test_word_bubble_peak_rss_holds_a_compact_table():
    # the object map over WordDomain((8, 4, 4)) peaked at 262 MB
    payload, peak_mb = _peak_rss("degree", "word_bubble", "--content",
                                 "8,4,4", "--force")
    assert payload["degree"] == "65/9" and payload["domain_size"] == 900900
    assert "engine_degree" not in payload
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


def test_tree_peak_rss_holds_compact_tables():
    # a million-vertex tree as a list, its tuple copy and a validated tuple
    # for F^k peaked at 69 MB, F beside F^k and its count at 34 MB, and
    # F^k beside a list of its fiber sizes at 29 MB; counted into bytes as
    # it is composed, it peaks at 22 MB (2 cores, Python 3.11), and the
    # ceiling leaves 5 MB for another interpreter's start-up
    payload, peak_mb = _peak_rss("degree", "tree", "--b", "1000", "--k", "2")
    assert payload["domain_size"] == 993001
    assert "engine_iterate_degree" not in payload
    assert peak_mb < 27, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize("argv, points, ceiling_mb", [
    # one Counter of every image key peaked at 28 MB, and at 110 MB with
    # --n 65; a class at a time, 20 and 49 MB (2 cores, Python 3.11).
    # Each ceiling leaves 5 MB, or a fifth, for another interpreter
    (("--n", "50"), 204226, 25),
    (("--n", "65", "--force"), 2012558, 60),
])
def test_bulgarian_peak_rss_holds_one_image_class(argv, points, ceiling_mb):
    payload, peak_mb = _peak_rss("degree", "bulgarian", *argv)
    assert payload["domain_size"] == points
    assert "image_defects" not in payload
    assert peak_mb < ceiling_mb, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize("system, argv, name, size", [
    ("bubble", ("--n", "4"), "bubble_rank_table", 24),
    ("word_bubble", ("--content", "2,1,1"), "word_rank_table", 12),
])
def test_degree_wrong_rank_table_exits_1(capsys, monkeypatch, system, argv,
                                         name, size):
    # a kernel that returned the identity table, of degree 1, is caught by
    # the closed form
    monkeypatch.setattr(bubble, name, lambda *args: array("I", range(size)))
    code, payload = run_json(capsys, "degree", system, *argv)
    assert code == 1
    assert payload["engine_degree"] == "1/1"
    assert payload["domain_size"] == size


@pytest.mark.parametrize("k", [1000, 1023, 1024])
def test_tree_iterates_at_large_k(capsys, k):
    # F^k by repeated squaring agrees with the depth-stratified closed form
    # up to the --k hard limit
    code, payload = run_json(capsys, "degree", "tree", "--b", "5", "--k",
                             str(k))
    assert code == 0
    assert payload["k"] == k
    assert "engine_degree" not in payload
    assert "engine_iterate_degree" not in payload


def test_bubble_iter_order_costs_one_build(capsys):
    # every pass from the (n-1)-st on is constant; 10^9 compositions of the
    # object map would not finish
    code, payload = run_json(capsys, "degree", "bubble_iter", "--n", "8",
                             "--k", "1000000000")
    assert code == 0
    assert payload["degree"] == "40320/1" and payload["k"] == 10 ** 9
    assert payload["histogram"] == {"0": 40319, "40320": 1}


def test_series_eta_prefix(capsys):
    code, payload = run_json(capsys, "series", "eta", "--n", "10")
    assert code == 0
    assert payload["coefficients"] == [1, 1, 2, 6, 16, 42, 114, 314, 870,
                                       2426, 6804]


def test_word_bubble_content_flag(capsys):
    code, payload = run_json(capsys, "degree", "word_bubble",
                             "--content", "2,1,1")
    assert code == 0
    assert payload["degree"] == "14/3"
    assert payload["content"] == [2, 1, 1]


# Exact stdout and exit code of every degree system at small sizes, in json
# and csv; default output must stay byte-identical across refactors.
_GOLDEN = json.loads((Path(__file__).parent / "golden_degree.json").read_text())


@pytest.mark.filterwarnings("ignore:n = 1 is outside")
@pytest.mark.parametrize("command", sorted(_GOLDEN))
def test_degree_output_is_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert [code, out] == _GOLDEN[command]


def test_binary_degree_at_n_1_warns_and_prints_the_pinned_output(
        capsys, monkeypatch):
    # n = 1 lies outside the degree-3/2 theorems: the command warns, from
    # cli.py, and still prints its payload, from its own map's kernel
    calls = []
    for name in ("chip_rank_table", "nibble_rank_table"):
        monkeypatch.setattr(nibble, name, lambda n, real=getattr(nibble, name),
                            name=name: calls.append(name) or real(n))
    for system, kernel in (("chip", "chip_rank_table"),
                           ("nibble_bin", "nibble_rank_table")):
        calls.clear()
        command = f"degree {system} --n 1 --no-timestamp --format json"
        with pytest.warns(UserWarning, match="theorem scope") as record:
            code, out = run(capsys, *command.split())
        assert [code, out] == _GOLDEN[command]
        assert [w.filename for w in record] == [cli.__file__]
        assert calls == [kernel]


# Exact stdout and exit code of every verify suite at its defaults, plus the
# exhaustive thm7 scan and one csv case.
_GOLDEN_VERIFY = json.loads(
    (Path(__file__).parent / "golden_verify.json").read_text())


@pytest.mark.parametrize("command", sorted(_GOLDEN_VERIFY))
def test_verify_output_is_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    assert [code, out] == _GOLDEN_VERIFY[command]


def test_degree_mismatch_prints_both_values(capsys, monkeypatch):
    real = bubble.bubble_degree_formula
    monkeypatch.setattr(bubble, "bubble_degree_formula",
                        lambda n, k=1: real(n, k) + 1)
    code, payload = run_json(capsys, "degree", "bubble", "--n", "4")
    assert code == 1
    assert payload["degree"] == "6/1" and payload["engine_degree"] == "5/1"
    assert payload["histogram"] == {"0": 18, "2": 2, "4": 3, "8": 1}


def test_degree_tree_mismatch_prints_both_values(capsys, monkeypatch):
    real = extremal.stratified_degree

    def off_by_one_iterate(spec, r=1):
        return real(spec, r) + (r == 2)

    monkeypatch.setattr(extremal, "stratified_degree", off_by_one_iterate)
    code, payload = run_json(capsys, "degree", "tree", "--b", "5")
    assert code == 1
    assert payload["degree"] == "19/9" and "engine_degree" not in payload
    assert payload["iterate_degree"] == "161/18"
    assert payload["engine_iterate_degree"] == "143/18"


def test_degree_tree_and_verify_prop1_share_one_engine(capsys, monkeypatch):
    # one pair too many in the engine's iterate count reaches both commands
    real = extremal.iterate_collisions
    monkeypatch.setattr(extremal, "iterate_collisions",
                        lambda table, k: real(table, k) + 1)
    code, payload = run_json(capsys, "degree", "tree", "--b", "5")
    assert code == 1
    assert payload["degree"] == "19/9" and "engine_degree" not in payload
    assert payload["iterate_degree"] == "143/18"
    assert payload["engine_iterate_degree"] == "287/36"
    failed = [c for c in suites.prop1(k=2) if not c["ok"]]
    assert failed[0] == {
        "name": "engine equals stratified b=5 k=2", "ok": False,
        "detail": "deg=19/9 iterate=287/36 vs stratified deg=19/9 "
                  "iterate=143/18"}


def _plus_one(real):
    return lambda *args: real(*args) + 1


def _one_more_fiber_of_size_one(real):
    return lambda n: {s: c + (s == 1) for s, c in real(n).items()}


def _one_defect_more(real):
    def perturbed(*args):
        outside, missed = real(*args)
        return outside + 1, missed
    return perturbed


def _base_degree_plus_one(real):
    def perturbed(b, k):
        closed_f, closed_fk = real(b, k)
        return closed_f + 1, closed_fk
    return perturbed


_BINARY_FIELDS = {"histogram": {"0": 4, "1": 8, "2": 4},
                  "expected_histogram": {"0": 4, "1": 9, "2": 4},
                  "matches_three_halves_histogram": False}
# system -> (flags, module, name, perturbation, payload fields it must
# print); every _SYSTEMS row but the exemptions, which have one route
_DEGREE_CASES = {
    "bubble": (("--n", "4"), bubble, "bubble_degree_formula", _plus_one,
               {"degree": "6/1", "engine_degree": "5/1"}),
    "bubble_iter": (("--n", "4", "--k", "2"), bubble,
                    "bubble_degree_formula", _plus_one,
                    {"degree": "16/1", "engine_degree": "15/1"}),
    "word_bubble": (("--content", "2,1,1"), bubble, "word_degree_formula",
                    _plus_one, {"degree": "17/3", "engine_degree": "14/3"}),
    "nibble_perm": (("--n", "4"), nibble, "nibble_degree_formula", _plus_one,
                    {"degree": "35/12", "engine_degree": "23/12"}),
    "nibble_bin": (("--n", "4"), nibble, "expected_binary_histogram",
                   _one_more_fiber_of_size_one, _BINARY_FIELDS),
    "chip": (("--n", "4"), nibble, "expected_binary_histogram",
             _one_more_fiber_of_size_one, _BINARY_FIELDS),
    "bulgarian": (("--n", "6"), solitaire, "bulgarian_image_defects",
                  _one_defect_more,
                  {"image_defects": {"rank_below_minus_1_in_image": 1,
                                     "rank_at_least_minus_1_missed": 0}}),
    "carolina": (("--n", "5"), solitaire, "carolina_degree", _plus_one,
                 {"degree": "29/8", "engine_degree": "21/8"}),
    "tree": (("--b", "5"), extremal, "stratified_degrees",
             _base_degree_plus_one,
             {"degree": "28/9", "engine_degree": "19/9"}),
}
# stack and hecke print the engine degree alone: no closed form to perturb
_DEGREE_EXEMPT = {"stack", "hecke"}


def test_every_degree_system_has_a_perturbed_case():
    assert set(_DEGREE_CASES) | _DEGREE_EXEMPT == set(cli._SYSTEMS)
    assert not set(_DEGREE_CASES) & _DEGREE_EXEMPT


@pytest.mark.parametrize("system", sorted(_DEGREE_CASES))
def test_degree_perturbed_check_exits_1_with_both_values(capsys, monkeypatch,
                                                         system):
    flags, module, name, perturb, fields = _DEGREE_CASES[system]
    code, _ = run_json(capsys, "degree", system, *flags)
    assert code == 0
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    code, payload = run_json(capsys, "degree", system, *flags)
    assert code == 1
    assert {key: payload.get(key) for key in fields} == fields


def test_degree_bulgarian_image_defect_prints_payload(capsys, monkeypatch):
    # a rank off by one moves the rank >= -1 boundary on both sides of the
    # certificate, so the image's rank -1 points fall outside it
    monkeypatch.setattr(solitaire, "_rank",
                        lambda largest, length: largest - length - 1)
    code, payload = run_json(capsys, "degree", "bulgarian", "--n", "6")
    assert code == 1
    assert payload["degree"] == "17/11"
    assert payload["image_defects"]["rank_below_minus_1_in_image"] > 0
    assert payload["image_defects"]["rank_at_least_minus_1_missed"] == 0


def test_degree_bulgarian_shifted_key_prints_both_defects(capsys, monkeypatch):
    # adding pl[1] to a key adds a part 1: the image point (3, 1, 1, 1) of
    # rank -1 turns into a key of rank -2, so one point leaves the rank >= -1
    # set and one lands outside it
    real = solitaire._bulgarian_classes

    def shifted(n, runs):
        pl = solitaire._part_keys(n)
        key = pl[3] + 3 * pl[1]
        for keys in real(n, runs):
            if key in keys:
                keys[key + pl[1]] = keys.pop(key)
            yield keys

    monkeypatch.setattr(solitaire, "_bulgarian_classes", shifted)
    code, payload = run_json(capsys, "degree", "bulgarian", "--n", "6")
    assert code == 1
    assert payload["degree"] == "17/11"
    assert payload["image_defects"] == {"rank_below_minus_1_in_image": 1,
                                        "rank_at_least_minus_1_missed": 1}


_ONE_BUILD = [
    ("bubble", "--n", "4"), ("bubble_iter", "--n", "4", "--k", "2"),
    ("word_bubble", "--content", "2,1,1"), ("stack", "--n", "4"),
    ("nibble_perm", "--n", "4"), ("nibble_bin", "--n", "4"),
    ("chip", "--n", "4"), ("bulgarian", "--n", "6"),
    ("carolina", "--n", "5"), ("hecke", "--n", "4"), ("tree", "--b", "5"),
]


@pytest.mark.parametrize("argv", _ONE_BUILD)
def test_degree_builds_its_domain_once(capsys, monkeypatch, argv):
    # the spans the benchmark counts as full-domain builds
    builds = []
    tabulate = EndoMap.from_function.__func__

    def counted_tabulate(cls, codec, fn):
        builds.append("tabulate")
        return tabulate(cls, codec, fn)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            builds.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(EndoMap, "from_function", classmethod(counted_tabulate))
    monkeypatch.setattr(stacksort, "stack_fibers",
                        counted("fibers", stacksort.stack_fibers))
    monkeypatch.setattr(solitaire, "bulgarian_fibers",
                        counted("bulgarian", solitaire.bulgarian_fibers))
    monkeypatch.setattr(extremal, "build_tree_map",
                        counted("tree", extremal.build_tree_map))
    # bubble, bubble_iter, word_bubble, carolina, chip, nibble_bin and
    # hecke build their one table from ranks
    for module, name in ((bubble, "bubble_rank_table"),
                         (bubble, "word_rank_table"),
                         (hecke, "hecke_rank_table"),
                         (solitaire, "carolina_rank_table"),
                         (nibble, "chip_rank_table"),
                         (nibble, "nibble_rank_table")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, _ = run(capsys, "degree", *argv, "--no-timestamp")
    assert code == 0
    assert len(builds) == 1, builds
