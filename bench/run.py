"""Benchmark of the noninv command line.

    python3 bench/run.py --workload tables --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke

Run from the repository root.  Each workload (bench/workloads.py) is a fixed
list of CLI commands.  One client runs them in a closed loop: every command
is a fresh ``python3 -m noninv.cli`` child with ``src`` on PYTHONPATH,
started only after the previous one exits.  Wall time and peak RSS of each
child come from ``os.wait4``; every exact value printed is checked against
bench/oracle.py, and a mismatch is recorded with both values without
stopping the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``wall_s``
is the median over passes of a pass's summed child wall times,
``peak_rss_mb`` the median over passes of the largest child peak RSS in the
pass, and ``setup_s`` the median wall time of a CLI child that enumerates
nothing.  Passes repeat while another one fits in ``--seconds``; there are
at least two.

``--trace 1`` reports the per-layer metrics.  It runs every workload's
commands once untraced, once under bench/tracer.py (each in a fresh
interpreter, so caches start cold) and the per-point sweeps, so every layer
is measured in every traced run.  Spans go to bench/out/spans/.

``--smoke`` runs both modes at tiny sizes, checks that every metric named in
BENCHMARK.json is emitted with its unit, then injects a wrong expected value
and checks that the run reports a failure.

Before every pass a fixed pure-Python loop is timed (``calib_s``) to show
host speed drift beside the program's numbers; nothing is rescaled by it.
The last line of standard output is the result object; the line before it
is a report with the machine, per-pass and per-command figures, and any
mismatches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 90
MIN_PASSES = 2
SETUP_PROBES = 9
CALIB_LOOP = 2_000_000
# spans counted as one full-domain build of a map
BUILD_SPANS = ("endo.tabulate", "stacksort.fibers", "extremal.tree")
LAYERS = ("cli", "perms", "endo", "bubble", "stacksort", "nibble", "hecke",
          "solitaire", "extremal")
# sweep stage -> metric, by codec kind; the map stage goes to MAP_METRIC
CODEC_METRIC = {
    "perm": {"objects_s": "perms.materialize_s", "rank_s": "perms.rank_s"},
    "word": {"objects_s": "bubble.words_s", "rank_s": "bubble.word_rank_s"},
    "binary": {"objects_s": "nibble.codec_s", "rank_s": "nibble.codec_s"},
    "partition": {"objects_s": "solitaire.partitions_s",
                  "rank_s": "solitaire.codec_s"},
    "composition": {"objects_s": "solitaire.codec_s",
                    "rank_s": "solitaire.codec_s"},
}
MAP_METRIC = {"bubble": "bubble.map_s", "hecke": "hecke.map_s",
              "chip": "nibble.map_s", "bulgarian": "solitaire.map_s",
              "carolina": "solitaire.map_s"}
# metric -> (span name, field) summed over traced commands
SPAN_METRIC = {
    "endo.tabulate_s": ("endo.tabulate", "total_s"),
    "endo.tabulate_points": ("endo.tabulate", "points"),
    "endo.validate_s": ("endo.validate", "total_s"),
    "endo.compose_s": ("endo.compose", "total_s"),
    "endo.compose_calls": ("endo.compose", "calls"),
    "endo.compose_points": ("endo.compose", "points"),
    "endo.collide_s": ("endo.collide", "total_s"),
    "endo.collide_calls": ("endo.collide", "calls"),
    "endo.collide_points": ("endo.collide", "points"),
    "stacksort.fibers_s": ("stacksort.fibers", "total_s"),
    "solitaire.sampler_build_s": ("solitaire.sampler_build", "total_s"),
    "solitaire.draw_s": ("solitaire.draw", "total_s"),
    "solitaire.eta_s": ("solitaire.eta", "total_s"),
    "extremal.check7_s": ("extremal.check7", "total_s"),
    "extremal.check7_pairs": ("extremal.check7", "calls"),
    "extremal.check3_s": ("extremal.check3", "total_s"),
    "extremal.search_s": ("extremal.search", "total_s"),
    "extremal.tree_s": ("extremal.tree", "total_s"),
}


class Child:
    """One finished child process."""

    def __init__(self, argv: list[str]):
        os.makedirs(OUT, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(os.path.join(OUT, "child-stderr.txt"), "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                    stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                watchdog.cancel()
            self.wall_s = time.perf_counter() - t0
            proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
            err.seek(0)
            self.stderr = err.read()[-2000:].decode(errors="replace")
        self.stdout = out.decode()
        self.rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB


class Run:
    """Commands attempted and failed in one benchmark run, with mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []

    def check(self, cmd_id: str, rc: int, stdout: str, expect: dict,
              stderr: str = "") -> bool:
        """Count one command; record and return False if it failed."""
        self.attempted += 1
        if rc != 0:
            found = [{"key": "exit_code", "got": rc, "want": 0,
                      "stderr": stderr}]
        else:
            try:
                found = oracle.mismatches(json.loads(stdout), expect)
            except json.JSONDecodeError as exc:
                found = [{"key": "stdout", "got": f"not JSON: {exc}", "want": "JSON"}]
        if found:
            self.failed += 1
            self.mismatches.append({"command": cmd_id, "mismatches": found})
        return not found

    def cli(self, cmd_id: str, argv, expect: dict) -> Child:
        child = Child(["-m", "noninv.cli", *argv, "--no-timestamp"])
        self.check(cmd_id, child.rc, child.stdout, expect, child.stderr)
        return child


def calib() -> float:
    """Time of a fixed pure-Python loop, as a host-speed reference."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def machine() -> dict:
    u = os.uname()
    return {"system": u.sysname, "release": u.release, "machine": u.machine,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def setup_probes(run: Run, count: int) -> list[float]:
    run.cli("setup.warmup", workloads.SETUP_PROBE, workloads.SETUP_EXPECT)
    return [run.cli("setup", workloads.SETUP_PROBE, workloads.SETUP_EXPECT).wall_s
            for _ in range(count)]


def measure(run: Run, cmds, seconds: float) -> tuple[dict, dict]:
    """Closed-loop passes over cmds; end-to-end metrics and a report."""
    setup = setup_probes(run, SETUP_PROBES)
    passes = []
    per_cmd = {c.id: {"wall_s": [], "peak_rss_mb": []} for c in cmds}
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t0
            + statistics.median(p["wall_s"] for p in passes) <= seconds):
        row = {"calib_s": calib(), "wall_s": 0.0, "peak_rss_mb": 0.0}
        for c in cmds:
            child = run.cli(c.id, c.argv, c.expect)
            row["wall_s"] += child.wall_s
            row["peak_rss_mb"] = max(row["peak_rss_mb"], child.rss_mb)
            per_cmd[c.id]["wall_s"].append(child.wall_s)
            per_cmd[c.id]["peak_rss_mb"].append(child.rss_mb)
        passes.append(row)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    report = {"passes": passes, "setup_probes_s": setup, "commands": per_cmd}
    return metrics, report


def traced_child(run: Run, c, spans_dir: str) -> tuple[Child, dict] | None:
    """Run c under the tracer; its parsed summary, or None if it failed."""
    child = Child([os.path.join(HERE, "tracer.py"), "cmd",
                   os.path.join(spans_dir, c.id), *c.argv, "--no-timestamp"])
    if child.rc != 0:
        run.check(c.id + ".traced", child.rc, "", {}, child.stderr)
        return None
    t = json.loads(child.stdout)
    run.check(c.id + ".traced", t["rc"], t["stdout"], c.expect)
    return child, t


def sweep_child(run: Run, c) -> dict | None:
    child = Child([os.path.join(HERE, "tracer.py"), "sweep", json.dumps(c.sweep)])
    ok = run.check(c.id + ".sweep", child.rc, child.stdout, {}, child.stderr)
    return json.loads(child.stdout) if ok else None


def trace(run: Run, all_cmds) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced and one traced run of each command."""
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    m: dict[str, float] = dict.fromkeys(
        [f"{layer}.self_s" for layer in LAYERS] + list(SPAN_METRIC)
        + [key for stages in CODEC_METRIC.values() for key in stages.values()]
        + list(MAP_METRIC.values())
        + ["cli.builds", "unattributed_s", "trace_overhead_s", "perms.points",
           "solitaire.sampler_mb"], 0)
    m["calib_s"] = statistics.median(calib() for _ in range(3))
    imports = []
    report = {"commands": {}, "sweeps": {}}
    for c in all_cmds:
        plain = run.cli(c.id, c.argv, c.expect)
        m[f"cmd.{c.id}.wall_s"] = plain.wall_s
        m[f"cmd.{c.id}.peak_rss_mb"] = plain.rss_mb
        is_degree = c.argv[0] == "degree"
        if is_degree:
            m[f"cmd.{c.id}.builds"] = 0
        got = traced_child(run, c, spans_dir)
        if got:
            traced, t = got
            spans = t["spans"]
            for layer in LAYERS:
                m[f"{layer}.self_s"] += sum(row["self_s"] for name, row in spans.items()
                                            if name.split(".")[0] == layer)
            for key, (span, field) in SPAN_METRIC.items():
                m[key] += spans.get(span, {}).get(field, 0)
            imports.append(t["import_s"])
            m["solitaire.sampler_mb"] += t["rss_kib"].get(
                "solitaire.sampler_build", 0) * 1024 / 1e6
            m["unattributed_s"] += (traced.wall_s - t["import_s"] - t["main_s"]
                                    - t["post_s"])
            m["trace_overhead_s"] += traced.wall_s - plain.wall_s
            builds = sum(spans.get(s, {}).get("calls", 0) for s in BUILD_SPANS)
            if is_degree:
                m["cli.builds"] += builds
                m[f"cmd.{c.id}.builds"] = builds
            report["commands"][c.id] = {"wall_s": plain.wall_s,
                                        "traced_wall_s": traced.wall_s,
                                        "builds": builds, "spans": spans,
                                        "missing_targets": t["missing_targets"]}
        stages = sweep_child(run, c) if c.sweep else None
        if stages:
            codec, map_kind = c.sweep[:2]
            for stage, key in CODEC_METRIC[codec].items():
                m[key] += stages[stage]
            m[MAP_METRIC[map_kind]] += stages["map_s"]
            if codec == "perm":
                m["perms.points"] += stages["points"]
            report["sweeps"][c.id] = stages
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return m, report


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result(run: Run, values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                        for s in specs}}


def bench(workload: str, seed: int, seconds: float, traced: bool,
          sizes: str = "full") -> tuple[dict, dict]:
    spec = declared()
    cmds = workloads.build(seed, sizes)
    run = Run()
    if traced:
        values, report = trace(run, [c for w in workloads.WORKLOADS for c in cmds[w]])
        specs = spec["per_layer"]
    else:
        values, report = measure(run, cmds[workload], seconds)
        specs = spec["end_to_end"]
    report.update(workload=workload, seed=seed, trace=int(traced), sizes=sizes,
                  machine=machine(), attempted=run.attempted, failed=run.failed,
                  fail_frac=run.failed / run.attempted, mismatches=run.mismatches)
    return result(run, values, specs), report


def smoke() -> int:
    """Tiny sizes: every declared metric with its unit, and a caught mismatch."""
    spec = declared()
    problems = []
    # the traced run covers every workload at once, so it runs once
    for workload, traced in [(w, False) for w in workloads.WORKLOADS] + [("tables", True)]:
        res, report = bench(workload, 1, 0, traced, "smoke")
        for s in spec["per_layer" if traced else "end_to_end"]:
            got = res["metrics"].get(s["name"])
            if got is None or got["unit"] != s["unit"]:
                problems.append(f"{workload} trace={int(traced)}: {s['name']}")
        if not res["correct"]:
            problems.append(f"{workload} trace={int(traced)}: {report['mismatches']}")
        for cmd_id, row in report.get("commands", {}).items():
            if traced and row["missing_targets"]:
                problems.append(f"{cmd_id}: no such targets {row['missing_targets']}")
    wrong = workloads.build(1, "smoke")["tables"][0]
    run = Run()
    expect = dict(wrong.expect, degree=wrong.expect["degree"] + "0")
    run.cli(wrong.id, wrong.argv, expect)
    fail_frac = run.failed / run.attempted
    if fail_frac == 0:
        problems.append("an injected wrong expected value was not reported")
    print(json.dumps({"smoke_ok": not problems, "problems": problems,
                      "injected_fail_frac": fail_frac,
                      "injected_mismatches": run.mismatches}))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="self-test at tiny sizes instead of a measured run")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noninv", "cli.py")):
        sys.stderr.write(f"error: no noninv sources under {SRC}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    res, report = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
