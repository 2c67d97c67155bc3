"""Command-line front end for degree computations, checks, and experiments.

Five subcommands: ``degree`` evaluates one system and prints its exact
degree with the fiber histogram, ``verify`` runs a named formula-vs-oracle
suite, ``search`` maximizes iterate ratios over all endofunctions,
``sample`` runs the seeded partition experiment, and ``series`` expands the
composition generating function.

Output is deterministic for a fixed command line and seed: JSON is the
canonical format (sorted keys, optional timestamp suppressed by
--no-timestamp), CSV flattens the same payload into key,value rows, and
table is the CSV content aligned for reading.  Exact rationals are printed
as "p/q" and every decimal is display-only at 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from datetime import datetime, timezone
from fractions import Fraction
from math import factorial

from . import bubble, extremal, hecke, nibble, solitaire, stacksort
from .endo import (EndoMap, FiberHistogram, degree, fiber_sizes, is_bijection,
                   is_constant, iterate)
from .perms import permutation_domain, reverse_complement

_PERM_LIMIT = 8
_PERM_HARD_LIMIT = 10
_WORD_LIMIT = 10 ** 4
_WORD_FORCED_LIMIT = 10 ** 6
_BINARY_LIMIT = 16
_BINARY_FORCED_LIMIT = 24
_TREE_LIMIT = 10 ** 6
_SAMPLE_N_LIMIT = 10 ** 5
_SAMPLE_COUNT_LIMIT = 10 ** 6
# eta_series grows about cubically: --n 2000 took 22 s on 2 cores
_SERIES_N_LIMIT = 2000


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def dec_str(x) -> str:
    return format(float(x), ".12g")


def _histogram_json(f: EndoMap) -> dict:
    return {str(s): c for s, c in FiberHistogram.from_map(f).counts.items()}


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


class CLIError(Exception):
    """Bad arguments or a size that needs --force; exits with code 2."""


def _guard(n: int, limit: int, what: str, force: bool, forced_limit: int) -> int:
    if n <= limit:
        return limit
    if not force:
        raise CLIError(
            f"{what} {n} exceeds the default limit {limit}; pass --force "
            f"to compute up to {forced_limit}")
    if n > forced_limit:
        raise CLIError(f"{what} {n} exceeds the hard limit {forced_limit}")
    return forced_limit


def _bounded(value: int, flag: str, lo: int, hi: int | None = None) -> None:
    if value < lo:
        raise CLIError(f"{flag} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise CLIError(f"{flag} {value} exceeds the hard limit {hi}")


def _size(value: int | None, default: int, flag: str, lo: int = 1) -> int:
    """A size flag of a verify suite: the default when absent, else >= lo."""
    if value is None:
        return default
    _bounded(value, flag, lo)
    return value


# ---------------------------------------------------------------------------
# degree subcommand


def _degree_payload(f: EndoMap, exact: Fraction) -> dict:
    if degree(f) != exact:
        raise RuntimeError("engine degree disagrees with the closed form")
    return {
        "domain_size": f.n,
        "degree": frac_str(exact),
        "degree_decimal": dec_str(exact),
        "histogram": _histogram_json(f),
    }


def cmd_degree(args) -> tuple[dict, int]:
    system = args.system
    payload: dict = {"command": "degree", "system": system}
    if system not in ("word_bubble", "tree"):
        _bounded(args.n, "--n", 1)
    if system in ("bubble", "bubble_iter"):
        k = args.k if system == "bubble_iter" else 1
        if k is None:
            raise CLIError("degree bubble_iter requires --k")
        _bounded(k, "--k", 1)
        _guard(args.n, _PERM_LIMIT, "n", args.force, _PERM_HARD_LIMIT)
        f = iterate(bubble.bubble_endomap(args.n), k)
        payload["n"] = args.n
        payload["k"] = k
        payload.update(_degree_payload(f, bubble.bubble_degree_formula(args.n, k)))
    elif system == "word_bubble":
        try:
            content = bubble.check_content(_parse_ints(args.content, "--content"))
        except ValueError as exc:
            raise CLIError(str(exc))
        if len(content) < 2:
            raise CLIError("--content needs at least two letters")
        size = bubble.multinomial(content)
        _guard(size, _WORD_LIMIT, "word count", args.force, _WORD_FORCED_LIMIT)
        f = bubble.word_bubble_endomap(content)
        payload["content"] = list(content)
        payload.update(_degree_payload(f, bubble.word_degree_formula(content)))
    elif system == "stack":
        limit = _guard(args.n, stacksort._DEFAULT_LIMIT, "n", args.force,
                       _PERM_HARD_LIMIT)
        d = stacksort.stack_degree(args.n, limit=limit, workers=args.threads)
        fibers = stacksort.stack_fibers(args.n, workers=args.threads)
        hist = {}
        for c in fibers.values():
            hist[c] = hist.get(c, 0) + 1
        hist[0] = factorial(args.n) - len(fibers)
        payload["n"] = args.n
        payload["degree"] = frac_str(d)
        payload["degree_decimal"] = dec_str(d)
        payload["domain_size"] = factorial(args.n)
        payload["histogram"] = {str(s): c for s, c in sorted(hist.items()) if c}
    elif system == "nibble_perm":
        _guard(args.n, _PERM_LIMIT, "n", args.force, _PERM_HARD_LIMIT)
        f = nibble.nibble_endomap(args.n)
        payload["n"] = args.n
        payload.update(_degree_payload(f, nibble.nibble_degree_formula(args.n)))
    elif system in ("nibble_bin", "chip"):
        limit = _guard(args.n, _BINARY_LIMIT, "n", args.force,
                       _BINARY_FORCED_LIMIT)
        map_id = "nib" if system == "nibble_bin" else "chi"
        d = nibble.binary_degree(map_id, args.n, limit=limit)
        maker = nibble.nibble_binary_endomap if map_id == "nib" else nibble.chip_endomap
        f = maker(args.n)
        payload["n"] = args.n
        payload["domain_size"] = f.n
        payload["degree"] = frac_str(d)
        payload["degree_decimal"] = dec_str(d)
        payload["histogram"] = _histogram_json(f)
        if args.n >= 2:
            expected = nibble.expected_binary_histogram(args.n)
            payload["matches_three_halves_histogram"] = (
                FiberHistogram.from_map(f).counts == expected)
    elif system == "bulgarian":
        limit = _guard(args.n, solitaire._PARTITION_LIMIT, "n", args.force,
                       args.n)
        d = solitaire.bulgarian_degree(args.n, limit=limit)
        f = solitaire.bulgarian_endomap(args.n, limit=limit)
        payload["n"] = args.n
        payload.update(_degree_payload(f, d))
    elif system == "carolina":
        limit = _guard(args.n, solitaire._COMPOSITION_LIMIT, "n", args.force,
                       args.n)
        f = solitaire.carolina_endomap(args.n, limit=limit)
        payload["n"] = args.n
        payload.update(_degree_payload(f, solitaire.carolina_degree(args.n)))
    elif system == "hecke":
        _guard(args.n, _PERM_LIMIT, "n", args.force, _PERM_HARD_LIMIT)
        gens = _parse_ints(args.word, "--word") if args.word else tuple(
            range(1, args.n))
        try:
            word = hecke.HeckeWord(args.n, gens)
        except ValueError as exc:
            raise CLIError(str(exc))
        f = hecke.hecke_endomap(word)
        d = degree(f)
        payload["n"] = args.n
        payload["word"] = list(gens)
        payload["image_size"] = len(set(f.table))
        payload["eventually_constant"] = hecke.is_eventually_constant(word)
        payload.update(_degree_payload(f, d))
    elif system == "tree":
        if args.b is None:
            raise CLIError("degree tree requires --b")
        k = args.k if args.k is not None else 2
        _bounded(args.b, "--b", 2)
        _bounded(k, "--k", 2)
        size = extremal.tree_size(args.b, k)
        if size > _TREE_LIMIT:
            raise CLIError(
                f"tree on {size} vertices exceeds the limit {_TREE_LIMIT}")
        deg_f, deg_fk = extremal.prop1_exact_degrees(args.b, k)
        f = extremal.build_tree_map(args.b, k)
        payload["b"] = args.b
        payload["k"] = k
        payload["branching"] = list(extremal.tree_branching(args.b, k))
        payload.update(_degree_payload(f, deg_f))
        payload["iterate_degree"] = frac_str(deg_fk)
        payload["iterate_degree_decimal"] = dec_str(deg_fk)
    else:  # pragma: no cover - argparse restricts choices
        raise CLIError(f"unknown system {system}")
    return payload, 0


# ---------------------------------------------------------------------------
# verify suites


def _suite_thm1(args) -> list[dict]:
    max_n = _size(args.max_n, 7, "--max-n")
    k_max = _size(args.k, 3, "--k")
    checks = []
    for n in range(1, max_n + 1):
        base = bubble.bubble_endomap(n)
        for k in range(1, k_max + 1):
            got = degree(iterate(base, k))
            want = bubble.bubble_degree_formula(n, k)
            checks.append(_check(f"iterated pass degree n={n} k={k}",
                                 got == want, f"{frac_str(got)} vs {frac_str(want)}"))
    return checks


def _suite_moments(args) -> list[dict]:
    max_n = _size(args.max_n, 6, "--max-n")
    m_max = _size(args.m, 3, "--m")
    checks = []
    for n in range(1, max_n + 1):
        f = bubble.bubble_endomap(n)
        sizes = fiber_sizes(f.table)
        for m in range(1, m_max + 1):
            got = Fraction(sum(sizes[f.table[x]] ** m for x in range(f.n)), f.n)
            want = bubble.bubble_moment(n, m)
            checks.append(_check(f"fiber moment n={n} m={m}", got == want,
                                 f"{frac_str(got)} vs {frac_str(want)}"))
    for n in range(1, 41):
        ok = bubble.bubble_moment(n, 1) == bubble.bubble_degree_formula(n, 1)
        checks.append(_check(f"first moment equals degree n={n}", ok, "exact"))
    return checks


def _suite_lem2(args) -> list[dict]:
    n = _size(args.n, 5, "--n")
    k_max = _size(args.k, 2, "--k")
    checks = []
    base = bubble.bubble_endomap(n)
    dom = permutation_domain(n)
    for k in range(1, k_max + 1):
        f = iterate(base, k)
        sizes = fiber_sizes(f.table)
        bad = 0
        for idx in range(f.n):
            if sizes[idx] != bubble.bubble_preimage_count(dom.unrank(idx), k):
                bad += 1
        checks.append(_check(f"fiber sizes match closed form n={n} k={k}",
                             bad == 0, f"{bad} mismatches over {f.n} targets"))
    return checks


def _suite_words(args) -> list[dict]:
    cap = _size(args.max_n, 8, "--max-n")
    checks = []
    from itertools import product
    contents = []
    for r in (2, 3, 4):
        for a in product(range(1, cap), repeat=r):
            if sum(a) <= cap and bubble.multinomial(a) <= _WORD_LIMIT:
                contents.append(a)
    contents += [(2, 120), (120, 2), (40, 2, 1)]
    for a in contents:
        got = degree(bubble.word_bubble_endomap(a))
        want = bubble.word_degree_formula(a)
        checks.append(_check(f"word degree content={a}", got == want,
                             f"{frac_str(got)} vs {frac_str(want)}"))
    return checks


def _suite_thm4(args) -> list[dict]:
    max_n = _size(args.max_n, 7, "--max-n")
    checks = []
    for n in range(1, max_n + 1):
        got = degree(nibble.nibble_endomap(n))
        want = nibble.nibble_degree_formula(n)
        checks.append(_check(f"single-swap degree n={n}", got == want,
                             f"{frac_str(got)} vs {frac_str(want)}"))
    val = float(nibble.nibble_degree_formula(20))
    lim = nibble.nibble_degree_limit()
    checks.append(_check("partial sum at n=20 near the limit",
                         abs(val - lim) < 1e-6, f"{val!r} vs {lim!r}"))
    return checks


def _suite_binary32(args) -> list[dict]:
    max_n = _size(args.max_n, 12, "--max-n", lo=2)
    checks = []
    for n in range(2, max_n + 1):
        nib_f = nibble.nibble_binary_endomap(n)
        chi_f = nibble.chip_endomap(n)
        expected = nibble.expected_binary_histogram(n)
        ok = (degree(nib_f) == degree(chi_f) == Fraction(3, 2)
              and FiberHistogram.from_map(nib_f).counts == expected
              and FiberHistogram.from_map(chi_f).counts == expected)
        fixed_ok = (any(i == v for i, v in enumerate(nib_f.table))
                    and not any(i == v for i, v in enumerate(chi_f.table)))
        checks.append(_check(f"degree 3/2 and histogram n={n}", ok, "exact"))
        checks.append(_check(f"fixed points: nib yes, chip no n={n}",
                             fixed_ok, "structural"))
    return checks


def _suite_thm5(args) -> list[dict]:
    max_n = _size(args.max_n, 20, "--max-n")
    checks = []
    for n in range(1, max_n + 1):
        elements = list(solitaire.partition_domain(n).objects())
        sizes = {}
        for lam in elements:
            mu = solitaire.bulgarian(lam)
            sizes[mu] = sizes.get(mu, 0) + 1
        bound = solitaire.max_preimage_bound(n)
        ok_bound = max(sizes.values()) <= bound
        image = set(sizes)
        ok_image = image == {lam for lam in elements
                             if solitaire.partition_rank(lam) >= -1}
        checks.append(_check(f"max fiber within bound n={n}", ok_bound,
                             f"max {max(sizes.values())} <= {bound}"))
        checks.append(_check(f"image is rank >= -1 n={n}", ok_image,
                             f"{len(image)} image points"))
    return checks


def _suite_thm6(args) -> list[dict]:
    max_n = _size(args.max_n, 14, "--max-n")
    series_n = max(max_n, 40)
    eta = solitaire.eta_series(series_n)
    checks = []
    for n in range(1, series_n + 1):
        got = solitaire.carolina_degree(n)
        want = Fraction(eta[n], 2 ** (n - 1))
        checks.append(_check(f"double sum equals series n={n}", got == want,
                             f"{frac_str(got)} vs {frac_str(want)}"))
    for n in range(1, min(max_n, 14) + 1):
        got = degree(solitaire.carolina_endomap(n))
        want = solitaire.carolina_degree(n)
        checks.append(_check(f"brute force agrees n={n}", got == want,
                             f"{frac_str(got)} vs {frac_str(want)}"))
    return checks


def _suite_thm7(args) -> list[dict]:
    checks = []
    if args.exhaustive:
        n = _size(args.n, 3, "--n")
        if n > 4 and not args.force:
            raise CLIError("exhaustive pair scan beyond n=4 needs --force")
        holds = equalities = predicate_ok = 0
        total = 0
        maps = [EndoMap.from_table(t) for t in extremal.all_tables(n)]
        for f in maps:
            for g in maps:
                h, eq = extremal.check_theorem7(f, g)
                total += 1
                holds += h
                if eq:
                    equalities += 1
                    predicate_ok += is_constant(f) and is_bijection(g)
        checks.append(_check(f"inequality over all {total} pairs n={n}",
                             holds == total, f"{holds}/{total} hold"))
        checks.append(_check("equality only for constant after bijection",
                             equalities == predicate_ok,
                             f"{equalities} equality pairs"))
    else:
        samples = _size(args.samples, 1000, "--samples")
        rng = random.Random(args.seed)
        for n in range(4, 11):
            bad = 0
            for _ in range(samples):
                f = EndoMap.from_table(extremal.random_table(n, rng))
                g = EndoMap.from_table(extremal.random_table(n, rng))
                if not extremal.check_theorem7(f, g)[0]:
                    bad += 1
            checks.append(_check(f"random pairs n={n}", bad == 0,
                                 f"{bad} failures in {samples}"))
    return checks


def _suite_thm3(args) -> list[dict]:
    max_n = _size(args.max_n, 4, "--max-n")
    k_max = _size(args.k, 4, "--k")
    checks = []
    for n in range(1, max_n + 1):
        bad = 0
        count = 0
        for t in extremal.all_tables(n):
            f = EndoMap.from_table(t)
            count += 1
            for k in range(1, k_max + 1):
                if not extremal.check_theorem3_bound(f, k):
                    bad += 1
        checks.append(_check(f"powered bound over all maps n={n} k<={k_max}",
                             bad == 0, f"{bad} failures over {count} maps"))
    w = extremal.exhaustive_ratio_search(3, 2, 2)
    checks.append(_check("collapse ratio maximum at n=3",
                         w.ratio_pow >= Fraction(27, 25) and w.recompute(),
                         f"ratio^1 = {frac_str(w.ratio_pow)}"))
    return checks


def _suite_prop1(args) -> list[dict]:
    bs = (5, 10, 100, 1000)
    k = _size(args.k, 2, "--k", lo=2)
    checks = []
    rows = []
    for b in bs:
        engine, closed = extremal.prop1_degrees(b, k)
        deg_f, deg_fk = engine
        n_b = extremal.tree_size(b, k)
        rows.append((float(deg_f), float(deg_fk) / n_b ** 0.5))
        detail = f"deg={frac_str(deg_f)} iterate={frac_str(deg_fk)}"
        if engine != closed:
            detail += (f" vs stratified deg={frac_str(closed[0])} "
                       f"iterate={frac_str(closed[1])}")
        checks.append(_check(f"engine equals stratified b={b} k={k}",
                             engine == closed, detail))
    base = [r[0] for r in rows]
    ratio = [r[1] for r in rows]
    checks.append(_check("base degrees increase toward k+1",
                         base == sorted(base) and base[-1] < k + 1,
                         " -> ".join(dec_str(x) for x in base)))
    checks.append(_check("normalized iterate degrees decrease toward 1",
                         ratio == sorted(ratio, reverse=True) and ratio[-1] > 1,
                         " -> ".join(dec_str(x) for x in ratio)))
    return checks


def _suite_hecke_odd(args) -> list[dict]:
    max_n = _size(args.max_n, 6, "--max-n")
    checks = []
    for n in range(1, max_n + 1):
        f = hecke.hecke_endomap(hecke.t_alt_word(n))
        got = len(set(f.table))
        want = hecke.updown_count(n)
        checks.append(_check(f"image size is the zigzag number n={n}",
                             got == want, f"{got} vs {want}"))
    for n in (5, 7):
        if n > max_n:
            continue
        alt = hecke.t_alt_word(n)
        tla = hecke.t_tla_word(n)
        ok = all(
            hecke.hecke_apply(alt, reverse_complement(pi))
            == reverse_complement(hecke.hecke_apply(tla, pi))
            for pi in permutation_domain(n).objects())
        checks.append(_check(f"reverse-complement intertwining n={n}", ok,
                             "pointwise"))
        da = degree(hecke.hecke_endomap(alt))
        dt = degree(hecke.hecke_endomap(tla))
        checks.append(_check(f"alternating operators share a degree n={n}",
                             da == dt, f"{frac_str(da)} vs {frac_str(dt)}"))
    report = hecke.conjecture2_scan(3, 4)
    checks.append(_check(
        "degree range scan (report only)", True,
        f"{len(report.violations)} operators outside "
        f"[{frac_str(report.bubble_degree)}, {frac_str(report.tla_degree)}] "
        f"over {report.distinct_operators} distinct"))
    return checks


_SUITES = {
    "thm1": _suite_thm1,
    "moments": _suite_moments,
    "lem2": _suite_lem2,
    "words": _suite_words,
    "thm4": _suite_thm4,
    "binary32": _suite_binary32,
    "thm5": _suite_thm5,
    "thm6": _suite_thm6,
    "thm7": _suite_thm7,
    "thm3": _suite_thm3,
    "prop1": _suite_prop1,
    "hecke_odd": _suite_hecke_odd,
}


def cmd_verify(args) -> tuple[dict, int]:
    checks = _SUITES[args.suite](args)
    failed = sum(1 for c in checks if not c["ok"])
    payload = {
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "ok": failed == 0,
    }
    return payload, 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# search, sample, series


def cmd_search(args) -> tuple[dict, int]:
    gamma = _parse_gamma(args.gamma)
    budget = max(args.n, extremal._SEARCH_BUDGET) if args.force else \
        extremal._SEARCH_BUDGET
    try:
        w = extremal.exhaustive_ratio_search(args.n, args.k, gamma,
                                             budget=budget,
                                             workers=args.threads)
    except ValueError as exc:
        raise CLIError(str(exc))
    payload = {"command": "search", "target": "ratio", "n": args.n}
    payload.update(w.to_json())
    payload["ratio_pow"] = frac_str(w.ratio_pow)
    return payload, 0


def cmd_sample(args) -> tuple[dict, int]:
    _bounded(args.n, "--n", 1, _SAMPLE_N_LIMIT)
    _bounded(args.samples, "--count", 1, _SAMPLE_COUNT_LIMIT)
    mean, stddev = solitaire.monte_carlo_bulgarian(args.n, args.samples,
                                                   rng_seed=args.seed)
    payload = {
        "command": "sample",
        "system": "bulgarian",
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "mean": dec_str(mean),
        "stddev": dec_str(stddev),
    }
    return payload, 0


def cmd_series(args) -> tuple[dict, int]:
    _bounded(args.n, "--n", 0, _SERIES_N_LIMIT)
    coeffs = solitaire.eta_series(args.n)
    payload = {
        "command": "series",
        "name": "eta",
        "n": args.n,
        "coefficients": coeffs,
    }
    return payload, 0


# ---------------------------------------------------------------------------
# plumbing


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    if not text:
        raise CLIError(f"{flag} must be a comma-separated integer list")
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CLIError(f"could not parse {flag} value {text!r}")


def _parse_gamma(text: str):
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return (int(num), int(den))
        return int(text)
    except ValueError:
        raise CLIError(f"could not parse --gamma value {text!r}")


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}.{i}")
    else:
        yield prefix, obj


def _emit(payload: dict, args) -> None:
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
        sys.stdout.write(buf.getvalue())
    else:
        rows = list(_flatten(payload))
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            sys.stdout.write(f"{key.ljust(width)}  {value}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noninv",
        description="Exact degree of noninvertibility of finite dynamical systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-stable output")

    p_degree = sub.add_parser("degree", help="exact degree of one system")
    p_degree.add_argument("system", choices=(
        "bubble", "bubble_iter", "word_bubble", "stack", "nibble_perm",
        "nibble_bin", "chip", "bulgarian", "carolina", "hecke", "tree"))
    p_degree.add_argument("--n", type=int, default=5)
    p_degree.add_argument("--k", type=int, default=None,
                          help="iterate order (bubble_iter, tree)")
    p_degree.add_argument("--b", type=int, default=None,
                          help="tree branching parameter")
    p_degree.add_argument("--content", type=str, default="2,1",
                          help="word content a1,a2,...")
    p_degree.add_argument("--word", type=str, default=None,
                          help="sorting-operator word i1,i2,...")
    p_degree.add_argument("--force", action="store_true")
    p_degree.add_argument("--threads", type=int, default=1)
    common(p_degree)
    p_degree.set_defaults(fn=cmd_degree)

    p_verify = sub.add_parser("verify", help="run a formula-vs-oracle suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None,
                          help="highest moment order")
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--exhaustive", action="store_true")
    p_verify.add_argument("--force", action="store_true")
    p_verify.add_argument("--threads", type=int, default=1)
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_search = sub.add_parser("search", help="maximize an iterate ratio")
    p_search.add_argument("target", choices=("ratio",))
    p_search.add_argument("--n", type=int, default=3)
    p_search.add_argument("--k", type=int, default=2)
    p_search.add_argument("--gamma", type=str, default="2",
                          help="dyadic exponent, e.g. 2 or 3/2")
    p_search.add_argument("--force", action="store_true")
    p_search.add_argument("--threads", type=int, default=1)
    common(p_search)
    p_search.set_defaults(fn=cmd_search)

    p_sample = sub.add_parser("sample", help="seeded partition experiment")
    p_sample.add_argument("system", choices=("bulgarian",))
    p_sample.add_argument("--n", type=int, default=1000)
    p_sample.add_argument("--samples", "--count", dest="samples", type=int,
                          default=100)
    p_sample.add_argument("--seed", type=int, default=0)
    common(p_sample)
    p_sample.set_defaults(fn=cmd_sample)

    p_series = sub.add_parser("series", help="composition count series")
    p_series.add_argument("name", choices=("eta",))
    p_series.add_argument("--n", type=int, default=10)
    common(p_series)
    p_series.set_defaults(fn=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args)
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
