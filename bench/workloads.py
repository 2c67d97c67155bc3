"""The benchmark's workloads: fixed lists of noninv CLI commands.

A seed changes the inputs of a workload (the Hecke word, the order of the
word content, the sampling seeds), never their sizes.  Each command carries
the values the oracle expects it to print and, for maps tabulated over a
codec, the per-point sweep that splits tabulation time between layers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial, isqrt

import oracle


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    expect: dict
    # (codec, map, *params) re-tabulated by tracer.py's sweep, or None
    sweep: tuple | None = None


SIZES = {
    "full": {"bubble": 9, "stack": 9, "hecke": 8, "chip": 16, "bulgarian": 50,
             "carolina": 18, "content": (6, 4, 3), "tree": (1000, 2),
             "thm7_samples": 20000, "thm7_n": 4, "thm3": 5, "search": 6,
             "sample": (3000, 1000), "eta": 300},
    "smoke": {"bubble": 4, "stack": 4, "hecke": 4, "chip": 4, "bulgarian": 6,
              "carolina": 5, "content": (2, 1, 1), "tree": (4, 2),
              "thm7_samples": 20, "thm7_n": 2, "thm3": 3, "search": 3,
              "sample": (30, 10), "eta": 10},
}
HECKE_WORD_LENGTH = 8
# Band for the sampled mean fiber size at the full size; the standard error
# at 1000 draws is about 0.06, so the band is more than five errors wide.
SAMPLE_MEAN_BAND = (2.6, 3.3)

# The pairs and sample command lists each spend most of a pass in one child,
# so on a noisy host their pass times spread widely from run to run; run as
# one workload, with longer runs, they spread less.
WORKLOADS = ("tables", "pairs_sample")

# A CLI call that enumerates nothing: start-up, import, parsing and output.
SETUP_PROBE = ("series", "eta", "--n", "1")
SETUP_EXPECT = {"coefficients": [1, 1]}


def _degree(id_, argv, expect, sweep=None) -> Command:
    return Command(id_, ("degree",) + argv, expect, sweep)


def _moments(expect: dict) -> dict:
    points = expect["domain_size"]
    return dict(expect, histogram_moments=[points, points, expect["degree"]])


def tables(s: dict, rng: random.Random) -> list[Command]:
    n = s["hecke"]
    word = [rng.randint(1, n - 1) for _ in range(HECKE_WORD_LENGTH)]
    content = rng.sample(s["content"], len(s["content"]))
    b, k = s["tree"]
    m = s["chip"]
    quarter = 1 << (m - 2)
    frac = oracle.frac
    return [
        _degree("tables.bubble", ("bubble", "--n", str(s["bubble"]), "--force"),
                _moments({"degree": frac(oracle.bubble_degree(s["bubble"])),
                          "domain_size": factorial(s["bubble"])}),
                ("perm", "bubble", s["bubble"])),
        _degree("tables.stack", ("stack", "--n", str(s["stack"])),
                _moments({"degree": frac(oracle.STACK_DEGREE[s["stack"]]),
                          "domain_size": factorial(s["stack"])})),
        _degree("tables.hecke",
                ("hecke", "--n", str(n), "--word", ",".join(map(str, word))),
                _moments(dict(oracle.hecke(n, word), word=word)),
                ("perm", "hecke", n, word)),
        _degree("tables.chip", ("chip", "--n", str(m)),
                _moments({"degree": "3/2", "domain_size": 1 << m,
                          "histogram": {"0": quarter, "1": 2 * quarter,
                                        "2": quarter},
                          "matches_three_halves_histogram": True}),
                ("binary", "chip", m)),
        _degree("tables.bulgarian", ("bulgarian", "--n", str(s["bulgarian"])),
                _moments({"degree": frac(oracle.BULGARIAN_DEGREE[s["bulgarian"]]),
                          "domain_size": oracle.partition_count(s["bulgarian"])}),
                ("partition", "bulgarian", s["bulgarian"])),
        _degree("tables.carolina", ("carolina", "--n", str(s["carolina"])),
                _moments({"degree": frac(oracle.carolina_degree(s["carolina"])),
                          "domain_size": 1 << (s["carolina"] - 1)}),
                ("composition", "carolina", s["carolina"])),
        _degree("tables.word",
                ("word_bubble", "--content", ",".join(map(str, content)),
                 "--force"),
                _moments({"degree": frac(oracle.word_degree(content)),
                          "domain_size": oracle.multinomial(content),
                          "content": content}),
                ("word", "bubble", content)),
        _degree("tables.tree", ("tree", "--b", str(b), "--k", str(k)),
                _moments(oracle.tree(b, k))),
    ]


def pairs(s: dict, seed: int) -> list[Command]:
    samples, n, max_n = s["thm7_samples"], s["thm7_n"], s["thm3"]
    pairs_n = n ** (2 * n)
    witness, ratio = oracle.RATIO_WITNESS[(s["search"], 2)]
    ok = {"ok": True, "failed": 0}
    return [
        Command("pairs.thm7", ("verify", "thm7", "--samples", str(samples),
                               "--seed", str(seed)),
                dict(ok, check_details=[f"0 failures in {samples}"] * 7)),
        Command("pairs.thm7x", ("verify", "thm7", "--exhaustive", "--n", str(n)),
                dict(ok, check_details=[
                    f"{pairs_n}/{pairs_n} hold",
                    f"{n * factorial(n)} equality pairs"])),
        Command("pairs.thm3", ("verify", "thm3", "--max-n", str(max_n)),
                dict(ok, check_details=[
                    f"0 failures over {m ** m} maps" for m in range(1, max_n + 1)]
                    + ["ratio^1 = 27/25"])),
        Command("pairs.search", ("search", "ratio", "--n", str(s["search"]),
                                 "--k", "2"),
                {"map": {"n": len(witness), "table": witness},
                 "ratio_pow": ratio, "gamma": [2, 0], "k": 2}),
    ]


def sample(s: dict, seed: int, full: bool) -> list[Command]:
    n, count = s["sample"]
    # smoke sizes use the proven range 1 <= fiber <= floor((1+sqrt(8n/3+1))/2)
    band = SAMPLE_MEAN_BAND if full else (1, (3 + isqrt(24 * n + 9)) // 6)
    return [
        Command("sample.draw", ("sample", "bulgarian", "--n", str(n), "--count",
                                str(count), "--seed", str(seed)),
                {"n": n, "samples": count, "seed": seed, "mean_band": list(band)}),
        Command("sample.eta", ("series", "eta", "--n", str(s["eta"])),
                {"coefficients": oracle.eta(s["eta"])}),
    ]


def build(seed: int, sizes: str = "full") -> dict[str, list[Command]]:
    """Every workload's commands and expectations for one seed."""
    s = SIZES[sizes]
    eta = oracle.eta(len(oracle.ETA_PREFIX) - 1)
    if eta != oracle.ETA_PREFIX:
        raise ArithmeticError(f"eta recurrence {eta} disagrees with the pinned prefix")
    return {
        "tables": tables(s, random.Random(seed)),
        "pairs_sample": pairs(s, seed) + sample(s, seed, sizes == "full"),
    }
