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
import os
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache

from .chern import Ch2Report, classify
from .fan import (
    DIM,
    MAX_PROBLEMS,
    Cone,
    Fan,
    FanError,
    FanTables,
    _cone,
    build_fan,
    build_fan_from_rays,
    cap_problems,
    minimal_nonfaces,
    validate_fan,
)

# true for a type checker only: typing is slow to import and needed for
# annotations alone
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

# A smooth Fano d-polytope has at most 3d vertices (Casagrande, Ann. Inst.
# Fourier 56, 2006), so a record with more rays is rejected unbuilt.
MAX_RAYS = 3 * DIM


# A parse error quotes at most this many characters of the input.
MAX_ECHO = 80

# A record name has at most this many characters, so a message that names
# the record quotes it whole.
MAX_NAME = 64

# The words that open a section line; a ray or collection line never does.
_KEYWORDS = frozenset(("variety", "rays", "collections", "end"))

# The characters of plain decimal integers. int() also takes a "+" sign,
# "_" between digits and non-ASCII digits, which the format does not.
_DECIMAL = "-0123456789"


class AtlasParseError(ValueError):
    """Malformed atlas text; the message carries the offending line number."""


def _echo(text: str) -> str:
    """``text`` as a parse error quotes it: cut to :data:`MAX_ECHO`
    characters followed by ``...`` when longer, unchanged otherwise."""
    return text if len(text) <= MAX_ECHO else text[:MAX_ECHO] + "..."


class VarietyRecord(
    namedtuple("VarietyRecord", "name rays collections collections_derived", defaults=(None, False))
):
    """One record of an atlas: its ``name``, its ``rays`` (a tuple of
    integer 4-tuples), its ``collections`` (a tuple of ascending 1-based ray
    index tuples, or ``None`` when the record has no collections section)
    and ``collections_derived``, true when the collections were derived from
    the rays on load instead of read."""

    __slots__ = ()


class AtlasDatabase:
    """The records of an atlas, in file order."""

    __slots__ = ("records",)

    def __init__(self, records: tuple[VarietyRecord, ...]):
        self.records = records

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


class RecordReport:
    """Outcome of the four validation checks for one record, filled in as
    the checks run."""

    __slots__ = ("name", "smooth", "complete", "round_trip", "fano", "problems")

    def __init__(self, name: str):
        self.name = name
        self.smooth = self.complete = self.round_trip = self.fano = False
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.round_trip and self.fano


def _fail(lineno: int, msg: str) -> NoReturn:
    raise AtlasParseError(f"line {lineno}: {msg}")


def _eof(lines: list, context: str) -> NoReturn:
    _fail(lines[-1][0] if lines else 0, f"unexpected end of input while reading {context}")


def _plain(tokens: list[str]) -> bool:
    """Whether the tokens hold nothing but "-" and ASCII digits."""
    # stripping those characters off both ends leaves the rest from the
    # first other character on, if there is one
    return not "".join(tokens).strip(_DECIMAL)


def parse(text: str) -> AtlasDatabase:
    """Parse atlas text into a database, preserving record order.

    Raises :class:`AtlasParseError` with a line number for malformed
    records, wrong arity, non-integer tokens, negative counts, duplicate
    names and names longer than :data:`MAX_NAME` characters. The message
    quotes input text through :func:`_echo`, so its length is bounded
    however long the offending line is.

    Every integer is a plain decimal: an optional "-", then ASCII digits.
    ``int`` alone also reads "+1", "1_0" and non-ASCII digits, so each
    integer token is tested with :func:`_plain` before ``int`` reads it.
    """
    # (line number, tokens) of each line with something besides a comment
    lines = [(n, tokens) for n, raw in enumerate(text.splitlines(), 1) if (tokens := raw.split("#", 1)[0].split())]
    end = len(lines)
    pos = 0
    records: list[VarietyRecord] = []
    names: set[str] = set()

    while pos < end:
        lineno, tokens = lines[pos]
        if tokens[0] != "variety" or len(tokens) != 2:
            _fail(lineno, f"expected 'variety <name>', got: {_echo(' '.join(tokens))}")
        name = tokens[1]
        if len(name) > MAX_NAME:
            _fail(lineno, f"variety name longer than {MAX_NAME} characters: {name[:MAX_NAME]}...")
        if name in names:
            _fail(lineno, f"duplicate variety name {name!r}")
        names.add(name)

        if pos + 1 >= end:
            _eof(lines, f"'rays' header of {name}")
        lineno, tokens = lines[pos + 1]
        pos += 2
        if tokens[0] != "rays" or len(tokens) != 2:
            _fail(lineno, f"{name}: expected 'rays <d>', got: {_echo(' '.join(tokens))}")
        try:
            if not _plain(tokens[1:]):
                raise ValueError
            count = int(tokens[1])
        except ValueError:
            _fail(lineno, f"non-integer token in ray count of {name}: {_echo(tokens[1])}")
        if count < 1:
            _fail(lineno, f"{name}: ray count must be positive")

        rays = []
        block = lines[pos : pos + count]
        pos += len(block)
        for k, (lineno, tokens) in enumerate(block):
            if tokens[0] in _KEYWORDS:
                _fail(lineno, f"{name}: expected {_echo(str(count))} ray lines, found {k}")
            if len(tokens) != 4:
                _fail(lineno, f"{name}: ray line needs 4 integers, got {len(tokens)}")
            try:
                if not _plain(tokens):
                    raise ValueError
                rays.append(tuple(map(int, tokens)))
            except ValueError:
                _fail(lineno, f"non-integer token in ray of {name}: {_echo(' '.join(tokens))}")
        if len(block) < count:
            _eof(lines, f"ray {len(block) + 1} of {name}")

        collections = None
        if pos >= end:
            _eof(lines, f"'collections' or 'end' of {name}")
        lineno, tokens = lines[pos]
        pos += 1
        if tokens[0] == "collections":
            if len(tokens) != 2:
                _fail(lineno, f"{name}: expected 'collections <m>'")
            try:
                if not _plain(tokens[1:]):
                    raise ValueError
                m = int(tokens[1])
            except ValueError:
                _fail(lineno, f"non-integer token in collection count of {name}: {_echo(tokens[1])}")
            if m < 0:
                _fail(lineno, f"{name}: collection count must not be negative")
            colls = []
            block = lines[pos : pos + m]
            pos += len(block)
            for k, (lineno, tokens) in enumerate(block):
                if tokens[0] in _KEYWORDS:
                    _fail(lineno, f"{name}: expected {_echo(str(m))} collection lines, found {k}")
                try:
                    if not _plain(tokens):
                        raise ValueError
                    idx = tuple(map(int, tokens))
                except ValueError:
                    _fail(lineno, f"non-integer token in collection of {name}: {_echo(' '.join(tokens))}")
                if list(idx) != sorted(set(idx)):
                    _fail(lineno, f"{name}: collection indices must be ascending: {_echo(str(idx))}")
                # ascending, so the ends bound every index
                if idx[0] < 1 or idx[-1] > count:
                    _fail(lineno, f"{name}: collection index outside 1..{count}: {_echo(str(idx))}")
                colls.append(idx)
            if len(block) < m:
                _eof(lines, f"collection {len(block) + 1} of {name}")
            collections = tuple(colls)
            if pos >= end:
                _eof(lines, f"'end' of {name}")
            lineno, tokens = lines[pos]
            pos += 1
        if tokens != ["end"]:
            _fail(lineno, f"{name}: expected 'end', got: {_echo(' '.join(tokens))}")

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

    The fan is built once, and the validation report and the ch2 report
    read it. The minimal non-faces are derived at most once, by
    :func:`~toricfano.fan.minimal_nonfaces`, which keeps them in the fan
    tables, so under :func:`analyse_each` once per type. Declared
    collections round-trip when they are exactly that set, repeated lines
    counted once, and the same set names the difference when they do not:
    the declared-only and derived-only collections, each list cut after
    :data:`MAX_PROBLEMS` entries. ``toricfano show`` reads them to print
    the collections of a record without any. ``fan`` raises
    :class:`FanError` when the record does not describe a fan, ``report``
    never raises.

    The Fano check reads the wall relations that :func:`validate_fan` has
    stored, by position, with one :meth:`Fan.wall_relations` call. A
    complete toric variety is Fano when -K is ample, and -K is ample
    exactly when it has positive degree on every invariant curve V(tau)
    (the toric Kleiman criterion, Cox-Little-Schenck, *Toric Varieties*,
    Thm 6.3.13). With x the wall relation of tau, that degree is 2 - sum
    of x_w over w in tau.
    On a smooth complete fan this is Batyrev's criterion that every
    primitive relation has positive degree (Batyrev 1999, Prop. 2.3.6),
    which the test suite keeps as an independent oracle. The first wall,
    in :attr:`Fan.cones3` order, where the degree is not positive is
    reported, e.g. ``anticanonical degree -1 on the curve of wall (1, 2,
    3)``. No primitive relation is computed here: ``toricfano show``
    computes the ones it prints, and no other command computes any.

    The combinatorial tables of a fan built from collections
    (:class:`~toricfano.fan.FanTables`: maximal cones, walls, 3-cones,
    minimal non-faces, and on first read faces and 2-cones, which
    validation never reads) depend only on the ray count and the
    collections. ``tables``, when given, are those of an earlier record with
    the same ray count and collections, and the fan is built on them instead
    of from the collections; once a fan is built from collections,
    ``tables`` holds its tables. :func:`analyse_each` passes them from one
    record of a type to the next. The rays are never shared: bases, wall
    relations, the overlap check, the Fano check and ch2 are computed for
    every record. A record without collections takes the face-fan path and
    shares nothing.
    """

    def __init__(self, record: VarietyRecord, tables: FanTables | None = None):
        self.record = record
        self.tables = tables

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
        if self.tables is not None:
            # parse makes the rays integer tuples, so the fan takes them as they are
            return Fan._on_points(rec.rays, self.tables)
        fan = build_fan(rec.rays, rec.collections)
        self.tables = fan.tables
        return fan

    @cached_property
    def nonfaces(self) -> tuple[Cone, ...]:
        return minimal_nonfaces(self.fan)

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

        if rec.collections is None or rec.collections_derived:
            report.round_trip = True
        else:
            derived = frozenset(self.nonfaces)
            declared = frozenset(map(_cone, rec.collections))
            report.round_trip = derived == declared
            if not report.round_trip:
                missing = _capped(sorted(declared - derived))
                extra = _capped(sorted(derived - declared))
                report.problems.append(
                    f"collections do not round-trip (declared-only {missing}, derived-only {extra})"
                )
        # -K . V(tau) = 2 - sum of x_w over w in tau, from the wall relation
        # v_a + v_b = sum of x_w v_w that validation stored for every wall:
        # x holds the coordinates over the holder tau + a, with x_a at k
        failing = [
            (tau, degree)
            for tau, x, (_, k) in zip(fan.cones3, fan.wall_relations(), fan.tables.wall_rows)
            if (degree := 2 - x[0] - x[1] - x[2] - x[3] + x[k]) <= 0
        ]
        if failing:
            # the first failing wall in cones3 order
            tau, degree = failing[0]
            report.problems.append(f"anticanonical degree {degree} on the curve of wall {tau}")
            return
        report.fano = True

    @cached_property
    def ch2(self) -> Ch2Report:
        """ch2 on every invariant surface; expects a record that validated."""
        return classify(self.fan)


def _capped(cones: list[Cone]) -> str:
    """The list as Python prints it, cut after :data:`MAX_PROBLEMS` entries
    with ``and K more`` after the bracket when longer."""
    hidden = len(cones) - MAX_PROBLEMS
    return str(cones) if hidden <= 0 else f"{cones[:MAX_PROBLEMS]} and {hidden} more"


@lru_cache(maxsize=1)
def analyse(rec: VarietyRecord) -> VarietyAnalysis:
    """The analysis of ``rec``, kept until another record is analysed, so a
    caller that validates a record and then asks for its fan builds the fan
    once. It shares no tables; a pass over an atlas takes
    :func:`analyse_each`."""
    return VarietyAnalysis(rec)


def analyse_each(records: Sequence[VarietyRecord]) -> Iterator[tuple[int, VarietyAnalysis]]:
    """``(index, analysis)`` for every record of ``records``, one
    combinatorial type at a time.

    A type is a ray count with its collections, and the types come in the
    order they first appear. The records of a type share the fan tables of
    the first of them whose fan is built, and the tables are dropped when
    the type changes, so a pass builds one table set per type and holds at
    most one. A caller that needs input order puts each result at its
    index; no analysis depends on the order, since every check reads only
    its own record.
    """
    # a dict keeps first-seen order and, unlike sorting, never compares
    # None collections with ()
    types: dict[tuple, list[int]] = {}
    for i, rec in enumerate(records):
        types.setdefault((len(rec.rays), rec.collections), []).append(i)
    for indices in types.values():
        tables = None
        for i in indices:
            analysis = VarietyAnalysis(records[i], tables)
            yield i, analysis
            tables = analysis.tables


def record_fan(rec: VarietyRecord) -> Fan:
    """Build the record's fan, deriving cones from rays when needed."""
    return analyse(rec).fan


def _ray_problems(rec: VarietyRecord) -> list[str]:
    problems = []
    seen: dict[tuple, int] = {}
    for i, ray in enumerate(rec.rays, 1):
        # the gcd is never negative, and 0 only for the zero ray
        divisor = math.gcd(*ray)
        if divisor == 0:
            problems.append(f"ray {i} is zero")
        elif divisor != 1:
            problems.append(f"ray {i} is not primitive")
        if ray in seen:
            problems.append(f"rays {seen[ray]} and {i} coincide")
        else:
            seen[ray] = i
    return problems


def validate_record(rec: VarietyRecord) -> RecordReport:
    """Run the four structural checks on a record.

    Smooth and complete come from the fan validator; round-trip demands the
    declared collections equal the minimal non-faces of the built fan
    (:func:`~toricfano.fan.minimal_nonfaces`), and is vacuous on records
    without collections or whose collections were derived in the first
    place;
    the Fano check requires -K to have positive degree on the curve of every
    wall (the toric Kleiman criterion, Cox-Little-Schenck, Thm 6.3.13; on a
    smooth complete fan, Batyrev's criterion that every primitive relation
    has positive degree, Batyrev 1999, Prop. 2.3.6), read from the wall
    relations that validation stored. The first failing wall is reported,
    e.g. ``anticanonical degree -1 on the curve of wall (1, 2, 3)``. No
    primitive relation is computed; only ``toricfano show`` computes the
    ones it prints (see :class:`VarietyAnalysis`). Records with more than
    :data:`MAX_RAYS` rays, or with zero, non-primitive, repeated or unused
    rays, fail outright.
    """
    return analyse(rec).report


# The bundled atlas, package data next to this module. Opened directly,
# since importlib.resources imports inspect, pathlib and tempfile on
# CPython 3.12 and later.
SHIPPED_PATH = os.path.join(os.path.dirname(__file__), "data", "varieties.txt")


@lru_cache(maxsize=1)
def shipped_database() -> AtlasDatabase:
    """The bundled 67-variety database, with M5's collections derived."""
    with open(SHIPPED_PATH, encoding="utf-8") as f:
        text = f.read()
    records = []
    for rec in parse(text).records:
        if rec.collections is None:
            derived = minimal_nonfaces(build_fan_from_rays(rec.rays))
            rec = rec._replace(collections=derived, collections_derived=True)
        records.append(rec)
    return AtlasDatabase(tuple(records))


# Reference rows transcribed verbatim from the source table: variety name, a
# distinguished invariant surface (pair of 1-based ray indices), and the
# printed exact value of ch2 of the tangent bundle on it, as numerator and
# denominator. Every value is nonpositive, which is what rules the variety out
# as 2-Fano. One row is a misprint kept as printed: H2 at V(3,4) reads -1, but
# H2's own rays force -3/2, the value the table gives for H1 (which matches H2
# term for term on that surface). `paper-table` reports it as a mismatch.
_REFERENCE_ROWS = (
    ("E1", (2, 3), -2, 1),
    ("E2", (2, 3), -3, 2),
    ("E3", (2, 3), -1, 1),
    ("G1", (1, 5), -1, 2),
    ("G2", (1, 5), -2, 1),
    ("G3", (1, 5), -1, 1),
    ("G4", (1, 5), -1, 2),
    ("G5", (2, 5), -2, 1),
    ("G6", (2, 5), -3, 2),
    ("H1", (3, 4), -3, 2),
    ("H2", (3, 4), -1, 1),
    ("H3", (3, 4), -3, 2),
    ("H4", (3, 4), -3, 2),
    ("H5", (3, 4), -3, 2),
    ("H6", (3, 4), -3, 2),
    ("H7", (3, 4), -3, 2),
    ("H9", (3, 4), -3, 2),
    ("H10", (3, 4), -3, 2),
    ("I1", (1, 4), -3, 2),
    ("I2", (1, 4), -3, 2),
    ("I3", (1, 4), -3, 2),
    ("I4", (1, 4), -3, 2),
    ("I5", (1, 4), -3, 2),
    ("I6", (1, 4), -3, 2),
    ("I8", (1, 4), -3, 2),
    ("I9", (1, 4), -3, 2),
    ("I10", (1, 4), -3, 2),
    ("I12", (1, 4), -3, 2),
    ("I14", (1, 4), -3, 2),
    ("I15", (1, 4), -3, 2),
    ("J1", (1, 3), -1, 1),
    ("J2", (1, 3), -1, 2),
    ("K1", (3, 4), -3, 1),
    ("K2", (3, 4), -3, 1),
    ("K3", (3, 4), -3, 1),
    ("M1", (2, 4), -5, 2),
    ("M2", (2, 4), -5, 2),
    ("M3", (2, 4), -5, 2),
    ("M4", (2, 4), -5, 2),
    ("M5", (2, 4), -3, 2),
    ("Q1", (3, 4), -3, 2),
    ("Q2", (3, 4), -3, 2),
    ("Q3", (3, 4), -3, 2),
    ("Q4", (3, 4), -3, 2),
    ("Q5", (3, 4), -3, 2),
    ("Q7", (3, 4), -3, 2),
    ("Q9", (3, 4), -3, 2),
    ("Q12", (3, 4), -3, 2),
    ("Q13", (3, 4), -3, 2),
    ("Q14", (3, 4), -3, 2),
    ("Q16", (3, 4), -3, 2),
    ("Q17", (3, 4), -3, 2),
    ("R1", (1, 3), -4, 1),
    ("R2", (1, 3), -4, 1),
    ("R3", (1, 3), -4, 1),
    ("108", (4, 9), -1, 1),
    ("U1", (3, 7), -1, 2),
    ("U2", (3, 7), -1, 2),
    ("U3", (3, 9), -1, 2),
    ("U7", (3, 9), -1, 2),
    ("U8", (3, 9), -1, 2),
    ("Z1", (1, 3), -5, 2),
    ("Z2", (1, 3), -2, 1),
    ("117", (1, 4), -5, 1),
    ("118", (1, 4), -5, 2),
    ("124", (1, 7), -4, 1),
)


def __getattr__(name: str):
    """Build ``REFERENCE_TABLE``, the reference rows as (name, surface,
    ``Fraction``) triples, on its first access, and keep it as a module
    attribute. It is built lazily because ``fractions`` is slow to import,
    and ``list``, ``validate`` and ``show`` on a smooth atlas make no
    ``Fraction``."""
    if name == "REFERENCE_TABLE":
        from fractions import Fraction

        table = tuple((variety, surface, Fraction(num, den)) for variety, surface, num, den in _REFERENCE_ROWS)
        globals()[name] = table
        return table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
