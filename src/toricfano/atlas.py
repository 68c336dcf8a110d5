"""The variety database: file format, parser, validation, bundled data.

Records live in a line-oriented UTF-8 text format that is trivial to diff
and to transcribe:

    variety <name>
    rays <d>
    <d lines: four space-separated integers>
    collections <m>          # omit the whole section to derive from rays
    <m lines: space-separated 1-based ray indices, ascending>
    end

'#' starts a comment, blank lines are ignored. The bundled database holds 67
smooth toric Fano 4-folds; M5 ships without a collections section and gets
its primitive collections derived from the ray geometry on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources
from typing import Iterator

from .chern import Ch2Report, classify
from .fan import (
    DIM,
    MAX_PROBLEMS,
    Cone,
    Fan,
    FanError,
    PrimitiveRelation,
    build_fan,
    build_fan_from_rays,
    cap_problems,
    minimal_nonfaces,
    primitive_relation,
    validate_fan,
)

LatticePoint = tuple[int, int, int, int]

# A smooth Fano d-polytope has at most 3d vertices (Casagrande, Ann. Inst.
# Fourier 56, 2006), so a record with more rays is rejected unbuilt.
MAX_RAYS = 3 * DIM


class AtlasParseError(ValueError):
    """Malformed atlas text; the message carries the offending line number."""


@dataclass(frozen=True)
class VarietyRecord:
    name: str
    rays: tuple[LatticePoint, ...]
    collections: tuple[tuple[int, ...], ...] | None = None
    collections_derived: bool = False


@dataclass(frozen=True)
class AtlasDatabase:
    records: tuple[VarietyRecord, ...]

    def __iter__(self) -> Iterator[VarietyRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def lookup(self, name: str) -> VarietyRecord:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def names(self) -> tuple[str, ...]:
        return tuple(rec.name for rec in self.records)


@dataclass
class RecordReport:
    """Outcome of the four validation checks for one record."""

    name: str
    smooth: bool = False
    complete: bool = False
    round_trip: bool = False
    fano: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.round_trip and self.fano


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body.split()


def parse(text: str) -> AtlasDatabase:
    """Parse atlas text into a database, preserving record order.

    Raises :class:`AtlasParseError` with a line number for malformed
    records, wrong arity, non-integer tokens and duplicate names.
    """
    lines = list(_significant_lines(text))
    pos = 0
    records: list[VarietyRecord] = []
    names: set[str] = set()

    def fail(lineno, msg):
        raise AtlasParseError(f"line {lineno}: {msg}")

    def next_line(context):
        nonlocal pos
        if pos >= len(lines):
            lineno = lines[-1][0] if lines else 0
            fail(lineno, f"unexpected end of input while reading {context}")
        entry = lines[pos]
        pos += 1
        return entry

    def int_tokens(lineno, tokens, context):
        try:
            return tuple(int(t) for t in tokens)
        except ValueError:
            fail(lineno, f"non-integer token in {context}: {' '.join(tokens)}")

    while pos < len(lines):
        lineno, tokens = next_line("record header")
        if tokens[0] != "variety" or len(tokens) != 2:
            fail(lineno, f"expected 'variety <name>', got: {' '.join(tokens)}")
        name = tokens[1]
        if name in names:
            fail(lineno, f"duplicate variety name {name!r}")
        names.add(name)

        lineno, tokens = next_line(f"'rays' header of {name}")
        if tokens[0] != "rays" or len(tokens) != 2:
            fail(lineno, f"{name}: expected 'rays <d>', got: {' '.join(tokens)}")
        (count,) = int_tokens(lineno, tokens[1:], f"ray count of {name}")
        if count < 1:
            fail(lineno, f"{name}: ray count must be positive")

        rays = []
        for k in range(count):
            lineno, tokens = next_line(f"ray {k + 1} of {name}")
            if tokens[0] in ("variety", "rays", "collections", "end"):
                fail(lineno, f"{name}: expected {count} ray lines, found {k}")
            if len(tokens) != 4:
                fail(lineno, f"{name}: ray line needs 4 integers, got {len(tokens)}")
            rays.append(int_tokens(lineno, tokens, f"ray of {name}"))

        collections = None
        lineno, tokens = next_line(f"'collections' or 'end' of {name}")
        if tokens[0] == "collections":
            if len(tokens) != 2:
                fail(lineno, f"{name}: expected 'collections <m>'")
            (m,) = int_tokens(lineno, tokens[1:], f"collection count of {name}")
            colls = []
            for k in range(m):
                lineno, tokens = next_line(f"collection {k + 1} of {name}")
                if tokens[0] in ("variety", "rays", "collections", "end"):
                    fail(lineno, f"{name}: expected {m} collection lines, found {k}")
                idx = int_tokens(lineno, tokens, f"collection of {name}")
                if list(idx) != sorted(set(idx)):
                    fail(lineno, f"{name}: collection indices must be ascending: {idx}")
                if not all(1 <= i <= count for i in idx):
                    fail(lineno, f"{name}: collection index outside 1..{count}: {idx}")
                colls.append(idx)
            collections = tuple(colls)
            lineno, tokens = next_line(f"'end' of {name}")
        if tokens != ["end"]:
            fail(lineno, f"{name}: expected 'end', got: {' '.join(tokens)}")

        records.append(VarietyRecord(name, tuple(rays), collections))
    return AtlasDatabase(tuple(records))


def render(db: AtlasDatabase) -> str:
    """Canonical text for a database; inverse of :func:`parse` on content."""
    chunks = []
    for rec in db.records:
        lines = [f"variety {rec.name}", f"rays {len(rec.rays)}"]
        lines += [" ".join(str(x) for x in v) for v in rec.rays]
        if rec.collections is not None:
            lines.append(f"collections {len(rec.collections)}")
            lines += [" ".join(str(i) for i in c) for c in rec.collections]
        lines.append("end")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


class VarietyAnalysis:
    """What is computed about one record, each part on first use.

    The fan is built once, and its minimal non-faces and primitive relations
    are computed once; the validation report, the relation lines of
    ``toricfano show`` and the ch2 report all read them. ``fan`` raises
    :class:`FanError` when the record does not describe a fan, ``report``
    never raises.
    """

    def __init__(self, record: VarietyRecord):
        self.record = record
        self._relations: dict[Cone, PrimitiveRelation] = {}

    @cached_property
    def fan(self) -> Fan:
        rec = self.record
        if len(rec.rays) > MAX_RAYS:
            raise FanError(
                f"{len(rec.rays)} rays exceed the bound of {MAX_RAYS} for a smooth Fano 4-fold"
                " (at most 3d rays, Casagrande 2006)"
            )
        if rec.collections is None:
            return build_fan_from_rays(rec.rays)
        return build_fan(rec.rays, rec.collections)

    @cached_property
    def nonfaces(self) -> tuple[Cone, ...]:
        return minimal_nonfaces(self.fan)

    def relation(self, collection: Cone) -> PrimitiveRelation:
        """The primitive relation of a sorted collection of the fan."""
        rel = self._relations.get(collection)
        if rel is None:
            rel = self._relations[collection] = primitive_relation(self.fan, collection)
        return rel

    @cached_property
    def report(self) -> RecordReport:
        """The four structural checks, see :func:`validate_record`, with at
        most :data:`MAX_PROBLEMS` problems listed."""
        report = RecordReport(self.record.name)
        self._check(report)
        report.problems = cap_problems(report.problems)
        return report

    def _check(self, report: RecordReport) -> None:
        rec = self.record
        report.problems.extend(_ray_problems(rec))
        if report.problems:
            return
        try:
            fan = self.fan
        except FanError as exc:
            report.problems.append(str(exc))
            return
        used = {i for mc in fan.maxcones for i in mc}
        for i in range(1, fan.ray_count + 1):
            if i not in used:
                report.problems.append(f"ray {i} lies in no maximal cone")
        if report.problems:
            return
        if rec.collections is None:
            # build_fan_from_rays raises unless the face fan validates
            report.smooth = report.complete = True
        else:
            fan_report = validate_fan(fan)
            report.smooth = fan_report.smooth
            report.complete = fan_report.complete
            report.problems.extend(fan_report.problems)
            if not fan_report.ok:
                return

        derived = frozenset(self.nonfaces)
        if rec.collections is None or rec.collections_derived:
            report.round_trip = True
        else:
            declared = frozenset(tuple(c) for c in rec.collections)
            report.round_trip = declared == derived
            if not report.round_trip:
                missing = sorted(declared - derived)
                extra = sorted(derived - declared)
                report.problems.append(
                    f"collections do not round-trip (declared-only {missing}, derived-only {extra})"
                )
        try:
            report.fano = all(self.relation(p).degree > 0 for p in self.nonfaces)
            if not report.fano:
                report.problems.append("a primitive relation has nonpositive degree")
        except FanError as exc:
            report.problems.append(str(exc))

    @cached_property
    def ch2(self) -> Ch2Report:
        """ch2 on every invariant surface; expects a record that validated."""
        return classify(self.fan)


_last_analysis: VarietyAnalysis | None = None


def analyse(rec: VarietyRecord) -> VarietyAnalysis:
    """The analysis of ``rec``.

    Only the most recent analysis is kept, so a caller that validates a
    record and then asks for its fan builds the fan once, while a pass over
    a whole atlas holds one fan at a time.
    """
    global _last_analysis
    analysis = _last_analysis
    if analysis is None or analysis.record is not rec:
        analysis = _last_analysis = VarietyAnalysis(rec)
    return analysis


def record_fan(rec: VarietyRecord) -> Fan:
    """Build the record's fan, deriving cones from rays when needed."""
    return analyse(rec).fan


def _ray_problems(rec: VarietyRecord) -> list[str]:
    problems = []
    seen: dict[tuple, int] = {}
    for i, ray in enumerate(rec.rays, 1):
        if all(x == 0 for x in ray):
            problems.append(f"ray {i} is zero")
        elif math.gcd(*(abs(x) for x in ray)) != 1:
            problems.append(f"ray {i} is not primitive")
        if ray in seen:
            problems.append(f"rays {seen[ray]} and {i} coincide")
        else:
            seen[ray] = i
    return problems


def validate_record(rec: VarietyRecord) -> RecordReport:
    """Run the four structural checks on a record.

    Smooth and complete come from the fan validator; round-trip demands the
    declared collections equal the minimal non-faces of the built fan (it is
    vacuous for records whose collections were derived in the first place);
    the Fano check requires every relation degree to be positive. Records
    with more than :data:`MAX_RAYS` rays, or with zero, non-primitive,
    repeated or unused rays, fail outright.
    """
    return analyse(rec).report


@lru_cache(maxsize=1)
def shipped_database() -> AtlasDatabase:
    """The bundled 67-variety database, with M5's collections derived."""
    text = resources.files("toricfano").joinpath("data/varieties.txt").read_text("utf-8")
    records = []
    for rec in parse(text).records:
        if rec.collections is None:
            derived = minimal_nonfaces(build_fan_from_rays(rec.rays))
            rec = replace(rec, collections=derived, collections_derived=True)
        records.append(rec)
    return AtlasDatabase(tuple(records))


# Reference rows transcribed verbatim from the source table: variety name, a
# distinguished invariant surface (pair of 1-based ray indices), and the
# printed exact value of ch2 of the tangent bundle on it. Every value is
# nonpositive, which is what rules the variety out as 2-Fano. One row is a
# misprint kept as printed: H2 at V(3,4) reads -1, but H2's own rays force
# -3/2, the value the table gives for H1 (which matches H2 term for term on
# that surface). `paper-table` reports it as a mismatch.
REFERENCE_TABLE: tuple[tuple[str, tuple[int, int], Fraction], ...] = (
    ("E1", (2, 3), Fraction(-2)),
    ("E2", (2, 3), Fraction(-3, 2)),
    ("E3", (2, 3), Fraction(-1)),
    ("G1", (1, 5), Fraction(-1, 2)),
    ("G2", (1, 5), Fraction(-2)),
    ("G3", (1, 5), Fraction(-1)),
    ("G4", (1, 5), Fraction(-1, 2)),
    ("G5", (2, 5), Fraction(-2)),
    ("G6", (2, 5), Fraction(-3, 2)),
    ("H1", (3, 4), Fraction(-3, 2)),
    ("H2", (3, 4), Fraction(-1)),
    ("H3", (3, 4), Fraction(-3, 2)),
    ("H4", (3, 4), Fraction(-3, 2)),
    ("H5", (3, 4), Fraction(-3, 2)),
    ("H6", (3, 4), Fraction(-3, 2)),
    ("H7", (3, 4), Fraction(-3, 2)),
    ("H9", (3, 4), Fraction(-3, 2)),
    ("H10", (3, 4), Fraction(-3, 2)),
    ("I1", (1, 4), Fraction(-3, 2)),
    ("I2", (1, 4), Fraction(-3, 2)),
    ("I3", (1, 4), Fraction(-3, 2)),
    ("I4", (1, 4), Fraction(-3, 2)),
    ("I5", (1, 4), Fraction(-3, 2)),
    ("I6", (1, 4), Fraction(-3, 2)),
    ("I8", (1, 4), Fraction(-3, 2)),
    ("I9", (1, 4), Fraction(-3, 2)),
    ("I10", (1, 4), Fraction(-3, 2)),
    ("I12", (1, 4), Fraction(-3, 2)),
    ("I14", (1, 4), Fraction(-3, 2)),
    ("I15", (1, 4), Fraction(-3, 2)),
    ("J1", (1, 3), Fraction(-1)),
    ("J2", (1, 3), Fraction(-1, 2)),
    ("K1", (3, 4), Fraction(-3)),
    ("K2", (3, 4), Fraction(-3)),
    ("K3", (3, 4), Fraction(-3)),
    ("M1", (2, 4), Fraction(-5, 2)),
    ("M2", (2, 4), Fraction(-5, 2)),
    ("M3", (2, 4), Fraction(-5, 2)),
    ("M4", (2, 4), Fraction(-5, 2)),
    ("M5", (2, 4), Fraction(-3, 2)),
    ("Q1", (3, 4), Fraction(-3, 2)),
    ("Q2", (3, 4), Fraction(-3, 2)),
    ("Q3", (3, 4), Fraction(-3, 2)),
    ("Q4", (3, 4), Fraction(-3, 2)),
    ("Q5", (3, 4), Fraction(-3, 2)),
    ("Q7", (3, 4), Fraction(-3, 2)),
    ("Q9", (3, 4), Fraction(-3, 2)),
    ("Q12", (3, 4), Fraction(-3, 2)),
    ("Q13", (3, 4), Fraction(-3, 2)),
    ("Q14", (3, 4), Fraction(-3, 2)),
    ("Q16", (3, 4), Fraction(-3, 2)),
    ("Q17", (3, 4), Fraction(-3, 2)),
    ("R1", (1, 3), Fraction(-4)),
    ("R2", (1, 3), Fraction(-4)),
    ("R3", (1, 3), Fraction(-4)),
    ("108", (4, 9), Fraction(-1)),
    ("U1", (3, 7), Fraction(-1, 2)),
    ("U2", (3, 7), Fraction(-1, 2)),
    ("U3", (3, 9), Fraction(-1, 2)),
    ("U7", (3, 9), Fraction(-1, 2)),
    ("U8", (3, 9), Fraction(-1, 2)),
    ("Z1", (1, 3), Fraction(-5, 2)),
    ("Z2", (1, 3), Fraction(-2)),
    ("117", (1, 4), Fraction(-5)),
    ("118", (1, 4), Fraction(-5, 2)),
    ("124", (1, 7), Fraction(-4)),
)
