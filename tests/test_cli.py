"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from noninv import bubble, cli, extremal, hecke, solitaire, stacksort
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
    def broken(args):
        return [{"name": "always fails", "ok": False, "detail": "forced"}]

    monkeypatch.setitem(cli._SUITES, "lem2", broken)
    code, payload = run_json(capsys, "verify", "lem2")
    assert code == 1
    assert payload["ok"] is False and payload["failed"] == 1


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


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the argument check")


# the first call of real work for each refused row below
_WORK = ((solitaire, "monte_carlo_bulgarian"), (solitaire, "eta_series"),
         (bubble, "bubble_endomap"), (bubble, "word_bubble_endomap"),
         (hecke, "hecke_endomap"), (extremal, "all_tables"),
         (extremal, "random_table"), (extremal, "prop1_degrees"),
         (extremal, "build_tree_map"), (stacksort, "stack_fibers"),
         (solitaire, "bulgarian_endomap"), (solitaire, "carolina_endomap"),
         (extremal, "exhaustive_ratio_search"))
# one more worker than this machine has cores; refused before any pool starts
_TOO_MANY_THREADS = str((os.cpu_count() or 1) + 1)


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
    (("degree", "stack", "--n", "4", "--threads", "0"), 2),
    (("degree", "stack", "--n", "4", "--threads", _TOO_MANY_THREADS), 2),
    (("degree", "stack", "--n", "4", "--threads", "-1"), 2),
    (("search", "ratio", "--n", "3", "--threads", "0"), 2),
    (("search", "ratio", "--n", "3", "--threads", _TOO_MANY_THREADS), 2),
    (("verify", "thm3", "--threads", "0"), 2),
    (("degree", "stack", "--n", "4", "--threads", "1"), 0),
    (("search", "ratio", "--n", "3", "--threads", "1"), 0),
])
def test_sample_series_exit_codes(capsys, monkeypatch, argv, want):
    # refused input must exit 2 before any map, sampler or series starts;
    # the largest accepted sizes are checked against a stub, not run
    if want == 2:
        for module, name in _WORK:
            monkeypatch.setattr(module, name, _refuse)
    elif "100000" in argv:
        monkeypatch.setattr(solitaire, "monte_carlo_bulgarian",
                            lambda n, samples, rng_seed: (0.0, 0.0))
    elif "2000" in argv:
        monkeypatch.setattr(solitaire, "eta_series", lambda n: [1] * (n + 1))
    code, _ = run(capsys, *argv, "--no-timestamp")
    assert code == want


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


def test_sample_peak_rss_is_linear():
    # the quadratic count table peaked at 541 MB for this command
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m",
         "noninv.cli", "sample", "bulgarian", "--n", "3000", "--count", "10"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, maxrss_kib = map(int, done.stderr.split())
    assert code == 0
    assert json.loads(done.stdout)["n"] == 3000
    peak_mb = maxrss_kib * 1024 / 1e6
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


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


def test_degree_bulgarian_image_defect_prints_payload(capsys, monkeypatch):
    # a rank off by one moves the rank >= -1 boundary, so the certificate fails
    monkeypatch.setattr(solitaire, "_rank", lambda lam: lam[0] - len(lam) - 1)
    code, payload = run_json(capsys, "degree", "bulgarian", "--n", "6")
    assert code == 1
    assert payload["degree"] == "17/11"
    assert payload["image_defects"]["rank_below_minus_1_in_image"] > 0
    assert payload["image_defects"]["rank_at_least_minus_1_missed"] == 0


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
    monkeypatch.setattr(extremal, "build_tree_map",
                        counted("tree", extremal.build_tree_map))
    code, _ = run(capsys, "degree", *argv, "--no-timestamp")
    assert code == 0
    assert len(builds) == 1, builds
