"""Command-line front end for degree computations, checks, and experiments.

Five subcommands: ``degree`` evaluates one system and prints its exact
degree with the fiber histogram, ``verify`` runs a named formula-vs-oracle
suite of ``noninv.suites``, ``search`` maximizes iterate ratios over all
endofunctions, ``sample`` runs the seeded partition experiment, and
``series`` expands the composition generating function.

Output is deterministic for a fixed command line and seed: JSON is the
canonical format (sorted keys, optional timestamp suppressed by
--no-timestamp), CSV flattens the same payload into key,value rows, and
table is the CSV content aligned for reading.  Exact rationals are printed
as "p/q" and every decimal is display-only at 12 significant digits.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from fractions import Fraction
from math import inf

from . import bubble, extremal, hecke, nibble, perms, solitaire, stacksort
from .endo import FiberHistogram, dec_str, frac_str

# hard maxima of the flags that size no codec, timed on 2 cores, Python 3.11
_TREE_LIMIT = 10 ** 6
# F^k takes at most 2 log2(k) compositions by repeated squaring: the
# largest tree at --k 1024 (--b 63, 902,791 vertices) takes 0.7-0.8 s and
# 31 MB, F and F^512 beside the byte count of F^1024 as it is composed
# (16-18 s and 66 MB at k - 1 compositions)
_TREE_K_LIMIT = 1024
# measured at search --n 7 with the other flags at their defaults (0.6 s):
# a --gamma numerator of 512 takes 0.7 s and a denominator of 2^8 0.8 s
# (511/256: 0.85 s)
_GAMMA_NUM_LIMIT = 512
_GAMMA_LOG2_DEN_LIMIT = 8
# bounds parsing only: a Hecke word's table composes one generator table
# per letter of its reduced word, at most n(n - 1)/2 <= 45 letters by the
# 0-Hecke relations
_HECKE_WORD_LIMIT = 100


class CLIError(Exception):
    """Bad arguments or a size that needs --force; exits with code 2."""


def _guard(n: int, limit: int, what: str, force: bool, forced_limit: int):
    if n <= limit:
        return
    if not force:
        raise CLIError(
            f"{what} {n} exceeds the default limit {limit}; pass --force "
            f"to compute up to {forced_limit}")
    if n > forced_limit:
        raise CLIError(f"{what} {n} exceeds the hard limit {forced_limit}")


def _bounded(value: int, flag: str, lo: int, hi: int | None = None) -> None:
    if value < lo:
        raise CLIError(f"{flag} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise CLIError(f"{flag} {value} exceeds the hard limit {hi}")


def _reads(row: dict) -> dict:
    """The flags of row, and --force if one of its sizes has a force_limit."""
    if any(bounds is not None and len(bounds) > 2 for bounds in row.values()):
        return {**row, "force": None}
    return row


def _given(args, row: dict, command: str) -> dict:
    """The flags of args that were given, checked against row.

    row maps each flag the command reads to (minimum, maximum[,
    force_limit]), or to None for a flag the command checks itself; any
    other given flag is refused, --force too unless _reads finds it.  A size
    above its force_limit needs --force, which is passed on only where row
    lists it, so no suite or library call receives it.
    """
    reads = _reads(row)
    given = {}
    for flag, option in args.options.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in reads:
            raise CLIError(f"{command} takes no {option}")
        if reads[flag] is not None:
            lo, hi, *force_limit = reads[flag]
            _bounded(value, option, lo, None if force_limit else hi)
            if force_limit:
                # only the n of a codec or enumerator carries a force_limit
                _guard(value, force_limit[0], "n", args.force, hi)
        if flag in row:
            given[flag] = value
    return given


# ---------------------------------------------------------------------------
# degree subcommand


def _degree_payload(payload: dict, hist: FiberHistogram,
                    exact: Fraction | None) -> bool:
    """Add the degree and fiber histogram of one fiber count to payload.

    ``degree`` is exact when given, else the engine value; a mismatch adds
    the engine value as ``engine_degree`` and gives False.  Returns that
    verdict.
    """
    got = hist.degree()
    if exact is None:
        exact = got
    payload["domain_size"] = hist.n
    payload["degree"] = frac_str(exact)
    payload["degree_decimal"] = dec_str(exact)
    payload["histogram"] = {str(s): c for s, c in hist.counts.items()}
    if got != exact:
        payload["engine_degree"] = frac_str(got)
    return got == exact


# system -> {flag: (minimum, maximum[, force_limit])} of each flag it reads;
# a flag the command checks itself (a text list, or word_bubble's --force)
# maps to None, and a row with a force_limit reads --force in _given.  Every
# n maximum is the ceiling of the codec or enumerator it protects.
# bubble_iter's --k costs nothing past n - 1, where every pass is constant;
# T_b has more than b vertices, so --b stops at the vertex limit.
_S_N = (1, perms._PERM_HARD_LIMIT)
_PERM_N = (*_S_N, 8)
_STACK_N = (*_S_N, 9)
_BINARY_N = (1, nibble._BINARY_HARD_LIMIT, 16)
_SYSTEMS = {
    "bubble": {"n": _PERM_N},
    "bubble_iter": {"n": _PERM_N, "k": (1, None)},
    "word_bubble": {"content": None, "force": None},  # the word-count guard
    "stack": {"n": _STACK_N},
    "nibble_perm": {"n": _PERM_N},
    "nibble_bin": {"n": _BINARY_N},
    "chip": {"n": _BINARY_N},
    "bulgarian": {"n": (1, solitaire._PARTITION_HARD_LIMIT, 50)},
    "carolina": {"n": (1, solitaire._COMPOSITION_HARD_LIMIT, 20)},
    # --word has at most _HECKE_WORD_LIMIT letters: 100 take 0.14-0.18 s
    # and 18 MB at --n 8, and the bubble pass at --n 10 --force 2.5-3.4 s
    # and 89.5 MB (10^6 bytes, peak RSS by os.wait4), from lex-rank
    # generator tables
    "hecke": {"n": _PERM_N, "word": None},
    "tree": {"b": (2, _TREE_LIMIT), "k": (2, _TREE_K_LIMIT)},
}


def cmd_degree(system: str, given: dict) -> tuple[dict, int]:
    """Each system sets hist, its one fiber count, and exact, its closed
    form or None; a check beyond the degree clears ok."""
    payload: dict = {"command": "degree", "system": system}
    exact, ok = None, True
    if "n" in _SYSTEMS[system]:
        n = payload["n"] = given.get("n", 5)
    if system in ("bubble", "bubble_iter"):
        k = given.get("k") if system == "bubble_iter" else 1
        if k is None:
            raise CLIError("degree bubble_iter requires --k")
        hist = FiberHistogram.from_table(bubble.bubble_rank_table(n, k))
        exact = bubble.bubble_degree_formula(n, k)
        payload["k"] = k
    elif system == "word_bubble":
        try:
            content = bubble.check_content(
                _parse_ints(given.get("content", "2,1"), "--content"))
        except ValueError as exc:
            raise CLIError(str(exc))
        if len(content) < 2:
            raise CLIError("--content needs at least two letters")
        size = bubble._word_count(content)
        if size is None:
            raise CLIError(f"--content has more than "
                           f"{bubble._WORD_HARD_LIMIT} words, the hard limit")
        _guard(size, bubble._WORD_LIMIT, "word count", given.get("force"),
               bubble._WORD_HARD_LIMIT)
        hist = FiberHistogram.from_table(bubble.word_rank_table(content))
        exact = bubble.word_degree_formula(content)
        payload["content"] = list(content)
    elif system == "stack":
        hist = FiberHistogram.from_sizes(stacksort.stack_fibers(n).values())
    elif system == "nibble_perm":
        hist = FiberHistogram.from_map(nibble.nibble_endomap(n))
        exact = nibble.nibble_degree_formula(n)
    elif system in ("nibble_bin", "chip"):
        # both maps have degree 3/2 and one histogram for n >= 2; n = 1 is
        # outside the theorems and only warns
        if n < 2:
            warnings.warn(
                f"n = {n} is outside the degree-3/2 theorem scope (n >= 2)")
        table = (nibble.nibble_rank_table(n) if system == "nibble_bin"
                 else nibble.chip_rank_table(n))
        hist = FiberHistogram.from_table(table)
        if n >= 2:
            exact = Fraction(3, 2)
            expected = nibble.expected_binary_histogram(n)
            matches = payload["matches_three_halves_histogram"] = (
                hist.counts == expected)
            if not matches:
                payload["expected_histogram"] = {
                    str(s): c for s, c in expected.items()}
                ok = False
    elif system == "bulgarian":
        hist, image, shapes = solitaire.bulgarian_fibers(n)
        outside, missed = solitaire.bulgarian_image_defects(n, image, shapes)
        if outside or missed:
            payload["image_defects"] = {"rank_below_minus_1_in_image": outside,
                                        "rank_at_least_minus_1_missed": missed}
            ok = False
    elif system == "carolina":
        hist = FiberHistogram.from_table(solitaire.carolina_rank_table(n))
        exact = solitaire.carolina_degree(n)
    elif system == "hecke":
        gens = (_parse_ints(given["word"], "--word") if "word" in given
                else tuple(range(1, n)))
        if len(gens) > _HECKE_WORD_LIMIT:
            raise CLIError(f"--word has {len(gens)} letters, more than the "
                           f"hard limit {_HECKE_WORD_LIMIT}")
        try:
            word = hecke.HeckeWord(n, gens)
        except ValueError as exc:
            raise CLIError(str(exc))
        hist = FiberHistogram.from_table(hecke.hecke_rank_table(word))
        payload["word"] = list(gens)
        payload["eventually_constant"] = hecke.is_eventually_constant(word)
        payload["image_size"] = hist.n - hist.counts.get(0, 0)
    else:  # tree
        b, k = given.get("b"), given.get("k", 2)
        if b is None:
            raise CLIError("degree tree requires --b")
        size = extremal.tree_size(b, k)
        if size > _TREE_LIMIT:
            raise CLIError(
                f"tree on {size} vertices exceeds the limit {_TREE_LIMIT}")
        (hist, engine_fk), (exact, closed_fk) = extremal.prop1_degrees(b, k)
        payload["b"] = b
        payload["k"] = k
        payload["branching"] = list(extremal.tree_branching(b, k))
        payload["iterate_degree"] = frac_str(closed_fk)
        payload["iterate_degree_decimal"] = dec_str(closed_fk)
        if engine_fk != closed_fk:
            payload["engine_iterate_degree"] = frac_str(engine_fk)
            ok = False
    ok = _degree_payload(payload, hist, exact) and ok
    return payload, 0 if ok else 1


# ---------------------------------------------------------------------------
# verify subcommand


# suite -> {flag: (minimum, maximum[, force_limit])} of each flag its
# function reads as a keyword; the seed alone is unbounded.  Flags
# that size an S_n stop at the codec's ceiling, where each such suite took
# 7.6-22 s and 953-968 MB (10^6 bytes, peak RSS by os.wait4), except
# stack and hecke_odd (noted).  Every
# other maximum was measured with the suite's other flags at their
# defaults; its time is noted beside it (2 cores, Python 3.11).
_SUITES = {
    "thm1": {"max_n": _S_N, "k": (1, 20)},  # k: 0.3 s
    "moments": {"max_n": _S_N, "m": (1, 1000)},  # m: 2 s
    "lem2": {"n": _S_N, "k": (1, 20)},  # k: 0.2 s
    "words": {"max_n": (1, 32)},  # 11 s
    "thm4": {"max_n": _S_N},
    "binary32": {"max_n": (2, 20)},  # 23 s
    "stack": {"max_n": _STACK_N},  # 0.7-1.0 s, 29 MB
    "thm5": {"max_n": (1, 50)},  # 0.8-1.1 s, 21 MB
    "thm6": {"max_n": (1, 400)},  # 4 s
    "thm7": {"samples": (1, 200_000), "seed": (-inf, inf)},  # 1.9-2.3 s
    "thm7_exhaustive": {"n": (1, 5, 4)},  # 5.4-7.0 s
    "thm3": {"max_n": (1, 7), "k": (1, 16)},  # 1.5-1.9 s, k: 0.13 s
    "prop1": {"k": (2, 30)},  # 4.4-6.0 s, 124 MB (10^6 bytes)
    # max_n: 2.5-2.9 s and 72 MB (10^6 bytes, peak RSS by os.wait4)
    "hecke_odd": {"max_n": _S_N},
}


def cmd_verify(suite: str, given: dict) -> tuple[dict, int]:
    # imported here, so other commands skip compiling it
    from . import suites

    # a flag left out keeps the suite's default
    checks = getattr(suites, suite)(**given)
    failed = sum(1 for c in checks if not c["ok"])
    payload = {
        "command": "verify",
        "suite": suite.removesuffix("_exhaustive"),
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
        "ok": failed == 0,
    }
    return payload, 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# search, sample, series


def cmd_search(target: str, given: dict) -> tuple[dict, int]:
    n = given.get("n", 3)
    w = extremal.exhaustive_ratio_search(n, given.get("k", 2),
                                         _parse_gamma(given.get("gamma", "2")))
    payload = {"command": "search", "target": target, "n": n}
    payload.update(w.to_json())
    payload["ratio_pow"] = frac_str(w.ratio_pow)
    return payload, 0


def cmd_sample(system: str, given: dict) -> tuple[dict, int]:
    n, samples = given.get("n", 1000), given.get("samples", 100)
    seed = given.get("seed", 0)
    mean, stddev = solitaire.monte_carlo_bulgarian(n, samples, rng_seed=seed)
    payload = {
        "command": "sample",
        "system": system,
        "n": n,
        "samples": samples,
        "seed": seed,
        "mean": dec_str(mean),
        "stddev": dec_str(stddev),
    }
    return payload, 0


def cmd_series(name: str, given: dict) -> tuple[dict, int]:
    n = given.get("n", 10)
    payload = {
        "command": "series",
        "name": name,
        "n": n,
        "coefficients": solitaire.eta_series(n),
    }
    return payload, 0


# command -> (function, help line, {target: row}), each row shaped like a
# _SYSTEMS row and timed on 2 cores, Python 3.11.  search --n needs --force
# above 7; the search --k maximum was measured at --n 7 with the other flags
# at their defaults (0.6 s), and _parse_gamma checks --gamma.
_COMMANDS = {
    "degree": (cmd_degree, "exact degree of one system", _SYSTEMS),
    "verify": (cmd_verify, "run a formula-vs-oracle suite", _SUITES),
    "search": (cmd_search, "maximize an iterate ratio", {"ratio": {
        "n": (1, extremal._SEARCH_HARD_LIMIT, 7),
        "k": (1, 32),  # 1.0 s
        "gamma": None,
    }}),
    # RANPAR with guide rows of at most 512 KB: --n 3000 draws 0.47 ms each
    # and peaks at 17 MB over 1000 draws; --n 10^5 builds p(0..n) in 6.2 s,
    # draws 30 ms each and peaks at 37 MB over 100 draws
    "sample": (cmd_sample, "seeded partition experiment", {"bulgarian": {
        "n": (1, 10 ** 5), "samples": (1, 10 ** 6), "seed": (-inf, inf),
    }}),
    # the eta recurrence takes O(n) big-integer steps: --n 2000 takes 0.16 s
    "series": (cmd_series, "composition count series",
               {"eta": {"n": (0, 2000)}}),
}


# ---------------------------------------------------------------------------
# plumbing


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    if not text:
        raise CLIError(f"{flag} must be a comma-separated integer list")
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CLIError(f"could not parse {flag} value {text!r}")


def _parse_gamma(text: str) -> Fraction:
    """--gamma as a dyadic a/2^m >= 0 within the measured maxima."""
    num, _, den = text.partition("/")
    try:
        gamma = Fraction(int(num), int(den) if den else 1)
    except ValueError:
        raise CLIError(f"could not parse --gamma value {text!r}")
    except ZeroDivisionError:
        raise CLIError(f"--gamma {text} has a zero denominator")
    m = gamma.denominator.bit_length() - 1
    if gamma < 0 or gamma.denominator != 1 << m:
        raise CLIError(f"--gamma must be a dyadic a/2^m >= 0, got {text}")
    if gamma.numerator > _GAMMA_NUM_LIMIT or m > _GAMMA_LOG2_DEN_LIMIT:
        raise CLIError(
            f"--gamma {text} exceeds the hard limits a <= {_GAMMA_NUM_LIMIT}, "
            f"m <= {_GAMMA_LOG2_DEN_LIMIT}")
    return gamma


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
    # csv and datetime are imported where they are used, so a command that
    # writes neither loads neither
    if not args.no_timestamp:
        from datetime import datetime, timezone
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    elif args.format == "csv":
        import csv
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
    for command, (fn, help_line, rows) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        # verify thm7 --exhaustive runs the row thm7_exhaustive
        p.add_argument("target", choices=sorted(
            t for t in rows if not t.endswith("_exhaustive")))
        options = {}
        for flag, bounds in {flag: bounds for row in rows.values()
                             for flag, bounds in _reads(row).items()}.items():
            names = ["--" + flag.replace("_", "-")]
            if (command, flag) == ("sample", "samples"):
                names.append("--count")  # the name its refusals give
            if flag == "force":
                p.add_argument(*names, action="store_const", const=True)
            else:
                p.add_argument(*names, type=str if bounds is None else int)
            options[flag] = names[-1]
        if command == "verify":
            p.add_argument("--exhaustive", action="store_true")
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp field for byte-stable output")
        p.set_defaults(fn=fn, rows=rows, options=options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    target, name = args.target, f"{args.command} {args.target}"
    try:
        if getattr(args, "exhaustive", False):
            target += "_exhaustive"
            if target not in args.rows:
                raise CLIError(f"{name} takes no --exhaustive")
            name += " --exhaustive"
        payload, code = args.fn(target, _given(args, args.rows[target], name))
        _emit(payload, args)
        sys.stdout.flush()
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # every refusal is a CLIError, so anything else is a bug: exit 1
        # stays "a check failed"
        import traceback
        traceback.print_exc()
        sys.stderr.write(f"error: internal error: {exc!r}\n")
        if isinstance(exc, BrokenPipeError):
            # exit would flush the unwritten payload into the closed pipe
            sys.stdout = None
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
