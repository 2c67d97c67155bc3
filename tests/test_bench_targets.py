"""The benchmark's span targets and sweep codecs exist in the package.

bench/tracer.py wraps each TARGETS entry by module and attribute path, and
reports an entry it cannot find as missing instead of failing.  These tests
resolve every entry here, so a refactor that renames or drops one fails
tier-1 instead of silently losing a benchmark span.  Nothing is installed:
the tracer module is only loaded, and its wrappers never replace a function.
The last test runs the benchmark's own self-test, ``bench/run.py --smoke``,
so a change that breaks its oracle or a traced command fails tier-1 too.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_TRACER_PATH = _BENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span", sorted(tracer.TARGETS))
def test_tracer_target_resolves(span):
    module, path, _ = tracer.TARGETS[span]
    owner = importlib.import_module(f"noninv.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # install() looks the attribute up in the owner's own namespace
    assert attr in vars(owner)


# one tiny spec per codec the sweep builds (permutation_domain, WordDomain,
# BinaryDomain, partition_domain, CompositionDomain): (codec, map, *params)
_SWEEPS = [
    ("perm", "bubble", 4),
    ("perm", "hecke", 4, [1, 3, 2]),
    ("word", "bubble", [2, 1, 2]),
    ("binary", "chip", 4),
    ("partition", "bulgarian", 6),
    ("composition", "carolina", 5),
]


@pytest.mark.parametrize("spec", _SWEEPS, ids=lambda s: f"{s[0]}-{s[1]}")
def test_sweep_codec_builds_and_ranks(spec):
    make_codec, fn = tracer._codec_and_map(spec)
    codec = make_codec()
    objs = list(codec.objects())
    assert len(objs) == codec.size > 1
    assert [codec.rank(x) for x in objs] == list(range(codec.size))
    assert tracer.sweep(spec)["points"] == codec.size


def test_bench_smoke_run_passes():
    # every workload at tiny sizes, checked against bench/oracle.py, plus
    # one traced pass and one injected mismatch; about 11 s on 2 cores
    done = subprocess.run([sys.executable, str(_BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["smoke_ok"] is True, report["problems"]
