"""Traced child process: one CLI command with layer spans, or one sweep.

    python3 bench/tracer.py cmd <spans-file-stem> <cli argv...>
    python3 bench/tracer.py sweep '<json spec>'

``cmd`` imports noninv.cli, swaps the public layer functions in TARGETS for
wrappers that record spans, runs ``noninv.cli.main(argv)`` and prints one
JSON line: exit code, the CLI output, import time, and per-span-name calls,
inclusive and self time and points.  All spans (name, parent, start, end,
points) are kept in memory and written to ``<stem>.bin`` at the end, with
the column layout and names in ``<stem>.json``.

Functions that run once per domain point (map steps, codec rank/unrank) are
not wrapped; their time stays in the ``endo.tabulate`` span that calls them.
``sweep`` measures them instead: it re-tabulates one map over a fresh codec
as codec.objects(), the map over the objects, codec.rank of the images and
EndoMap(codec, table), timing each stage.

Run with ``src`` on PYTHONPATH; bench/run.py does this.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from array import array
from functools import partial

now = time.perf_counter_ns

# span name -> (module, attribute path, points of one call from its args)
TARGETS = {
    "endo.tabulate": ("endo", "EndoMap.from_function", lambda a: a[1].size),
    "endo.validate": ("endo", "EndoMap.__post_init__", lambda a: len(a[0].table)),
    "endo.compose": ("endo", "compose", lambda a: len(a[1].table)),
    "endo.collide": ("endo", "degree", lambda a: len(a[0].table)),
    "endo.histogram": ("endo", "FiberHistogram.from_map", lambda a: len(a[1].table)),
    "perms.domain": ("perms", "permutation_domain", None),
    "bubble.endomap": ("bubble", "bubble_endomap", None),
    "bubble.word_endomap": ("bubble", "word_bubble_endomap", None),
    "bubble.formula": ("bubble", "bubble_degree_formula", None),
    "bubble.word_formula": ("bubble", "word_degree_formula", None),
    "stacksort.fibers": ("stacksort", "stack_fibers", None),
    "stacksort.degree": ("stacksort", "stack_degree", None),
    "nibble.chip_endomap": ("nibble", "chip_endomap", None),
    "nibble.binary_degree": ("nibble", "binary_degree", None),
    "hecke.endomap": ("hecke", "hecke_endomap", None),
    "solitaire.partition_domain": ("solitaire", "partition_domain", None),
    "solitaire.bulgarian_endomap": ("solitaire", "bulgarian_endomap", None),
    "solitaire.bulgarian_degree": ("solitaire", "bulgarian_degree", None),
    "solitaire.carolina_endomap": ("solitaire", "carolina_endomap", None),
    "solitaire.carolina_degree": ("solitaire", "carolina_degree", None),
    "solitaire.sampler_build": ("solitaire", "PartitionSampler.__init__", None),
    "solitaire.draw": ("solitaire", "PartitionSampler.sample", None),
    "solitaire.monte_carlo": ("solitaire", "monte_carlo_bulgarian", None),
    "solitaire.eta": ("solitaire", "eta_series", None),
    "extremal.tree": ("extremal", "build_tree_map", None),
    "extremal.prop1": ("extremal", "prop1_exact_degrees", None),
    "extremal.random_table": ("extremal", "random_table", None),
    "extremal.check7": ("extremal", "check_theorem7", None),
    "extremal.check3": ("extremal", "check_theorem3_bound", None),
    "extremal.search": ("extremal", "exhaustive_ratio_search", None),
}
# Spans whose peak-RSS growth is recorded (KiB), for the sampler's table.
RSS_SPANS = {"solitaire.sampler_build"}


class Tracer:
    """Spans in parallel arrays; parent -1 marks a top-level span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.points = array("q")
        self.stack = [-1]
        self.rss_kib: dict[str, int] = {}

    def wrap(self, name: str, fn, points):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end, pts, stack = (
            self.name_id, self.parent, self.start, self.end, self.points,
            self.stack)
        rss = name in RSS_SPANS

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            pts.append(points(args) if points else 0)
            end.append(0)
            stack.append(i)
            if rss:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
                if rss:
                    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
                    self.rss_kib[name] = self.rss_kib.get(name, 0) + grown

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package) -> list[str]:
        """Swap each target on its owner and in every module that imported it.

        Returns the targets the package no longer has; they record no spans.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == package or k.startswith(package + ".")]
        missing = []
        for name, (mod, path, points) in TARGETS.items():
            owner = sys.modules.get(f"{package}.{mod}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, points)))
                continue
            new = self.wrap(name, raw, points)
            setattr(owner, attr, new)
            if not cls_path:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, new)
        return missing

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, points."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child[i]) / 1e9
            row["points"] += self.points[i]
        return out

    def write(self, stem: str) -> None:
        cols = [self.name_id, self.parent, self.start, self.end, self.points]
        with open(stem + ".bin", "wb") as fh:
            for col in cols:
                col.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"spans": len(self.start),
                       "names": self.names,
                       "columns": [["name", "i"], ["parent", "i"],
                                   ["start_ns", "q"], ["end_ns", "q"],
                                   ["points", "q"]],
                       "layout": "column-major, native byte order"}, fh)


def trace_command(stem: str, argv: list[str]) -> dict:
    t0 = now()
    import noninv.cli
    import_s = (now() - t0) / 1e9
    tracer = Tracer()
    missing = tracer.install("noninv")
    main = tracer.wrap("cli.main", noninv.cli.main, None)
    buf = io.StringIO()
    t1 = now()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    main_s = (now() - t1) / 1e9
    t2 = now()
    spans = tracer.summary()
    tracer.write(stem)
    return {"rc": rc, "stdout": buf.getvalue(), "import_s": import_s,
            "main_s": main_s, "post_s": (now() - t2) / 1e9, "spans": spans,
            "rss_kib": tracer.rss_kib, "missing_targets": missing}


def _codec_and_map(spec):
    from noninv import bubble, hecke, nibble, perms, solitaire
    codec_kind, map_kind, *params = spec
    make_codec = {"perm": perms.permutation_domain, "word": bubble.WordDomain,
                  "binary": nibble.BinaryDomain,
                  "partition": solitaire.partition_domain,
                  "composition": solitaire.CompositionDomain}[codec_kind]
    if map_kind == "hecke":
        fn = partial(hecke.hecke_apply, hecke.HeckeWord(params[0], tuple(params[1])))
    else:
        fn = {"bubble": bubble.bubble_sort, "chip": nibble.chip_fire,
              "bulgarian": solitaire.bulgarian,
              "carolina": solitaire.carolina}[map_kind]
    return partial(make_codec, params[0]), fn


def sweep(spec) -> dict:
    from noninv.endo import EndoMap
    make_codec, fn = _codec_and_map(spec)
    t0 = now()
    codec = make_codec()
    objs = list(codec.objects())
    t1 = now()
    images = [fn(x) for x in objs]
    t2 = now()
    table = tuple(codec.rank(y) for y in images)
    t3 = now()
    EndoMap(codec, table)
    t4 = now()
    return {"objects_s": (t1 - t0) / 1e9, "map_s": (t2 - t1) / 1e9,
            "rank_s": (t3 - t2) / 1e9, "wrap_s": (t4 - t3) / 1e9,
            "points": len(objs)}


if __name__ == "__main__":
    mode, arg, *rest = sys.argv[1:]
    result = trace_command(arg, rest) if mode == "cmd" else sweep(json.loads(arg))
    sys.stdout.write(json.dumps(result) + "\n")
