"""The three benchmark workloads: seeded inputs, CLI calls and output checks.

Each workload is one pass of CLI calls that the benchmark repeats in a closed
loop with a single client. The inputs depend only on the seed; what each call
should print comes from :mod:`oracle` and never reaches the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

QUERIES_PER_PASS = 2000


@dataclass
class Call:
    """One ``toricfano`` invocation and how to judge what it printed."""

    argv: list[str]
    items: int
    check: Callable[[object, str, str], int]  # (exit code, stdout, stderr) -> items failed


@dataclass
class Workload:
    name: str
    calls: list[Call]
    replay: Callable[[object], None]  # the same pass as library calls, see run.library()


def shipped_records(root: Path) -> list[oracle.Record]:
    return oracle.read_atlas((root / "src/toricfano/data/varieties.txt").read_text("utf-8"))


def unimodular_map(rng: random.Random) -> list[list[int]]:
    """A small-entry matrix of determinant +-1: transvections, then a signed row shuffle."""
    m = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(4):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[sign * x for x in row] for row, sign in zip(m, (rng.choice((-1, 1)) for _ in m))]


def lattice_image(rec: oracle.Record, name: str, rng: random.Random, keep_collections: bool):
    """``rec`` under a random GL4(Z) map with its rays relabelled; always valid."""
    g = unimodular_map(rng)
    n = len(rec.rays)
    perm = list(range(n))
    rng.shuffle(perm)
    rays = [None] * n
    for old, ray in enumerate(rec.rays):
        rays[perm[old]] = tuple(sum(g[r][c] * ray[c] for c in range(4)) for r in range(4))
    colls = None
    if keep_collections and rec.collections is not None:
        colls = tuple(sorted(tuple(sorted(perm[i - 1] + 1 for i in c)) for c in rec.collections))
    return oracle.Record(name, tuple(rays), colls)


def user_atlas(seed: int, records: list[oracle.Record]) -> list[tuple[oracle.Record, bool]]:
    """Generated records with their expected verdicts, in file order.

    One GL4(Z) image and one single ray swap per shipped record. Among
    records of similar size (groups of three by ray count) the seed picks one
    image to lose its collections, so about a third take the face-fan path
    and the cost of a pass barely depends on the seed.
    """
    rng = random.Random(seed)
    by_size = sorted(records, key=lambda r: (len(r.rays), r.name))
    omit = {g[rng.randrange(len(g))].name for g in (by_size[k : k + 3] for k in range(0, len(by_size), 3))}
    out = []
    for rec in records:
        out.append((lattice_image(rec, f"g_{rec.name}", rng, rec.name not in omit), True))
        i, j = sorted(rng.sample(range(1, len(rec.rays) + 1), 2))
        rays = list(rec.rays)
        rays[i - 1], rays[j - 1] = rays[j - 1], rays[i - 1]
        swapped = oracle.Record(f"s_{rec.name}_{i}_{j}", tuple(rays), rec.collections)
        out.append((swapped, oracle.swap_accepted(rec, i, j)))
    rng.shuffle(out)
    return out


# -- output checks -------------------------------------------------------------


def check_classify(expected: str, items: int):
    """Header, one row per variety, and the two_fano line, compared row by row."""
    want = expected.splitlines()

    def check(rc, out, err):
        got = out.splitlines()
        if rc != 0 or err or len(got) != len(want) or (got[0], got[-1]) != (want[0], want[-1]):
            return items
        return sum(g != w for g, w in zip(got[1:-1], want[1:-1]))

    return check


def check_validate(verdicts: list[tuple[str, bool]]):
    header = "variety\tsmooth\tcomplete\tround_trip\tfano\tok"
    rc_expected = 0 if all(ok for _, ok in verdicts) else 1

    def check(rc, out, err):
        got = out.splitlines()
        if rc != rc_expected or len(got) != len(verdicts) + 1 or got[0] != header:
            return len(verdicts)
        complained = {line.split(": ", 1)[0] for line in err.splitlines()}
        failed = 0
        for line, (name, ok) in zip(got[1:], verdicts):
            cols = line.split("\t")
            flags = cols[1:]
            good = (
                len(cols) == 6
                and cols[0] == name
                and set(flags) <= {"true", "false"}
                and (flags[-1] == "true") == ok == all(f == "true" for f in flags)
                and (name in complained) != ok
            )
            failed += not good
        return failed

    return check


def check_value(expected: str):
    def check(rc, out, err):
        return int(rc != 0 or out != expected + "\n" or bool(err))

    return check


# -- workloads -----------------------------------------------------------------


def shipped_classify(seed: int, root: Path, work: Path) -> Workload:
    records = shipped_records(root)
    values = {r.name: oracle.OracleFan(r).values() for r in records}
    expected = oracle.classify_all_stdout(values)
    call = Call(["classify", "--all"], len(records), check_classify(expected, len(records)))

    def replay(lib):
        lib.parse_args(call.argv)
        for rec in lib.atlas.shipped_database():
            if lib.atlas.validate_record(rec).ok:
                lib.chern.classify(lib.atlas.record_fan(rec))

    return Workload("shipped_classify", [call], replay)


def user_atlas_validate(seed: int, root: Path, work: Path) -> Workload:
    generated = user_atlas(seed, shipped_records(root))
    text = oracle.write_atlas([rec for rec, _ in generated])
    path = work / f"user-atlas-{seed}.txt"
    path.write_text(text, encoding="utf-8")
    verdicts = [(rec.name, ok) for rec, ok in generated]
    call = Call(["validate", str(path)], len(verdicts), check_validate(verdicts))

    def replay(lib):
        lib.parse_args(call.argv)
        for rec in lib.atlas.parse(path.read_text(encoding="utf-8")):
            lib.atlas.validate_record(rec)

    return Workload("user_atlas_validate", [call], replay)


def surface_queries(seed: int, root: Path, work: Path) -> Workload:
    values = {r.name: oracle.OracleFan(r).values() for r in shipped_records(root)}
    pairs = [(name, sigma) for name, vals in values.items() for sigma in vals]
    rng = random.Random(seed)
    stream = [rng.choice(pairs) for _ in range(QUERIES_PER_PASS)]
    calls = [
        Call(["ch2", name, "--surface", f"{i},{j}"], 1, check_value(str(values[name][(i, j)])))
        for name, (i, j) in stream
    ]

    def replay(lib):
        for call, (name, sigma) in zip(calls, stream):
            lib.parse_args(call.argv)
            fan = lib.atlas.record_fan(lib.atlas.shipped_database().lookup(name))
            lib.chern.ch2_dot_surface(fan, sigma)

    return Workload("surface_queries", calls, replay)


WORKLOADS = {w.__name__: w for w in (shipped_classify, user_atlas_validate, surface_queries)}
