"""Command line front end.

Verbs: list, show, ch2, classify, paper-table, validate. Output is TSV
(header row, LF endings) or JSON (stable key order) and is byte-identical
across runs: fixed ordering, exact lowest-term fractions, no timestamps.
Exit codes: 0 success, 1 validation failure / unknown variety / value
mismatch, 2 parse errors.
"""

from __future__ import annotations

import argparse
import sys

from .atlas import (
    AtlasParseError,
    analyse,
    analyse_each,
    parse,
    shipped_database,
)
from .chern import ch2_dot_surface
from .fan import build_star, primitive_relation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


class _Unreadable(Exception):
    """An atlas file that cannot be read; the message is the OS error."""


def _load_db(path):
    if path is None:
        return shipped_database()
    # only the read is guarded: an OSError elsewhere, such as a closed
    # stdout, is not an unreadable file
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Unreadable(exc) from None
    except UnicodeDecodeError as exc:
        # read whole, so the position counts bytes from the start of the file
        raise AtlasParseError(str(exc)) from None
    return parse(text)


def _surface_str(cone) -> str:
    return "V(" + ",".join(str(i) for i in cone) + ")"


def _print_json(payload) -> None:
    # imported here: json is slow to import and TSV output does not need it
    import json

    print(json.dumps(payload, ensure_ascii=False, indent=2))


def _print_rows(args, columns, rows) -> None:
    if args.format == "json":
        _print_json([{c: row[c] for c in columns} for row in rows])
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(row[c] for c in columns))


def cmd_list(args) -> int:
    db = _load_db(args.db)
    rows = [
        {
            "variety": rec.name,
            "rays": str(len(rec.rays)),
            "collections": "-" if rec.collections is None else str(len(rec.collections)),
        }
        for rec in db
    ]
    _print_rows(args, ["variety", "rays", "collections"], rows)
    return EXIT_OK


def _lookup(db, name):
    """The record called ``name``, or ``None`` once ``unknown variety: NAME``
    is printed to stderr."""
    try:
        return db.lookup(name)
    except KeyError:
        print(f"unknown variety: {name}", file=sys.stderr)
        return None


def cmd_show(args) -> int:
    rec = _lookup(_load_db(args.db), args.name)
    if rec is None:
        return EXIT_FAIL
    print(f"variety {rec.name}")
    for i, ray in enumerate(rec.rays, 1):
        print(f"  v{i} = ({', '.join(str(x) for x in ray)})")
    analysis = analyse(rec)
    collections = rec.collections
    tag = " (derived)" if collections is None or rec.collections_derived else ""
    print(f"  collections{tag}:")
    report = analysis.report
    # a smooth complete fan whose collections round-trip has its primitive
    # relations even when it is not Fano, and they show the relation at fault
    fan_ok = report.smooth and report.complete and report.round_trip
    if not report.ok:
        print(f"  ({'not Fano' if fan_ok else 'relations unavailable'}: {report.problems[0]})")
    if not fan_ok:
        # a record that fails validation may not be a fan, so no relation is computed
        for coll in collections or ():
            print(f"    {{{', '.join(str(i) for i in coll)}}}")
        return EXIT_OK
    for coll in analysis.nonfaces if collections is None else collections:
        print(f"    {primitive_relation(analysis.fan, coll).describe()}")
    return EXIT_OK


def _parse_surface(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("surface must be two indices: i,j")
    try:
        i, j = (int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("surface indices must be integers") from exc
    return (i, j)


def _print_surface(args, rec, fan) -> int:
    sigma = tuple(sorted(args.surface))
    if sigma not in fan.cones2:
        print(f"not a cone of {rec.name}: {_surface_str(args.surface)}", file=sys.stderr)
        return EXIT_FAIL
    value = ch2_dot_surface(fan, sigma)
    if args.format == "json":
        _print_json({"variety": rec.name, "surface": _surface_str(sigma), "value": str(value)})
    else:
        print(value)
    return EXIT_OK


def cmd_ch2(args) -> int:
    rec = _lookup(_load_db(args.db), args.name)
    if rec is None:
        return EXIT_FAIL
    if args.surface is not None and args.db is None:
        # the one path that trusts the bundled atlas, which the test suite
        # validates: one surface needs only the maximal cones that contain it
        return _print_surface(args, rec, build_star(rec.rays, rec.collections, args.surface))
    analysis = analyse(rec)
    if not analysis.report.ok:
        _print_err(_failure_lines(analysis.report))
        return EXIT_FAIL

    if args.surface is not None:
        return _print_surface(args, rec, analysis.fan)

    report = analysis.ch2
    rows = [
        {"variety": rec.name, "surface": _surface_str(sigma), "value": str(value), "classification": ""}
        for sigma, value in report.values.items()
    ]
    rows.append(
        {
            "variety": rec.name,
            "surface": _surface_str(report.witness),
            "value": str(report.min_value),
            "classification": report.classification,
        }
    )
    _print_rows(args, ["variety", "surface", "value", "classification"], rows)
    return EXIT_OK


def _print_err(lines) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _failure_lines(report) -> list[str]:
    return [f"{report.name}: {problem}" for problem in report.problems] + [f"{report.name}: validation failed"]


def cmd_classify(args) -> int:
    db = _load_db(args.db)
    if args.all:
        targets = list(db)
    else:
        if not args.names:
            print("classify: give variety names or --all", file=sys.stderr)
            return EXIT_FAIL
        targets = []
        # each named variety once, in the order first given
        for name in dict.fromkeys(args.names):
            rec = _lookup(db, name)
            if rec is None:
                return EXIT_FAIL
            targets.append(rec)

    # one analysis at a time, a type at a time, each row and failure put at
    # its input index: each fan is dropped once its row is made, and after a
    # failure only validation goes on, since no row will be printed
    rows = [None] * len(targets)
    failed = {}
    for i, analysis in analyse_each(targets):
        if not analysis.report.ok:
            failed[i] = analysis.report
        if failed:
            continue
        report = analysis.ch2
        rows[i] = {
            "variety": targets[i].name,
            "surface": _surface_str(report.witness),
            "value": str(report.min_value),
            "classification": report.classification,
        }
    if failed:
        for i in sorted(failed):
            _print_err(_failure_lines(failed[i]))
        return EXIT_FAIL

    columns = ["variety", "surface", "value", "classification"]
    two_fano = [row["variety"] for row in rows if row["classification"] == "two_fano"]
    if args.format == "json":
        _print_json(
            {
                "rows": [{c: row[c] for c in columns} for row in rows],
                "two_fano_count": len(two_fano),
                "two_fano": two_fano,
            }
        )
    else:
        _print_rows(args, columns, rows)
        names = (": " + " ".join(two_fano)) if two_fano else ""
        print(f"# two_fano {len(two_fano)} of {len(rows)}{names}")
    return EXIT_OK


def cmd_paper_table(args) -> int:
    # imported here: the table is built on first access, with fractions
    from .atlas import REFERENCE_TABLE

    db = _load_db(args.db)
    # the rows before the first missing variety are computed, a type at a
    # time, until a record is refused; every record is still validated, so
    # the first refusal in table order is the one reported
    records = []
    for name, _, _ in REFERENCE_TABLE:
        try:
            records.append(db.lookup(name))
        except KeyError:
            break
    rows = [None] * len(records)
    mismatches = [None] * len(records)
    refusals = {}
    for i, analysis in analyse_each(records):
        if not analysis.report.ok:
            refusals[i] = analysis.report
        if refusals:
            continue
        fan = analysis.fan
        name, surface, expected = REFERENCE_TABLE[i]
        sigma = tuple(sorted(surface))
        if sigma not in fan.cones2:
            mismatches[i] = f"{name} {_surface_str(surface)}: surface is not a cone"
            value = "n/a"
        else:
            computed = ch2_dot_surface(fan, sigma)
            value = str(computed)
            if computed != expected:
                mismatches[i] = f"{name} {_surface_str(surface)}: computed {computed}, reference {expected}"
        rows[i] = {"variety": name, "surface": _surface_str(surface), "value": value}
    if refusals:
        _print_err(_failure_lines(refusals[min(refusals)]))
        return EXIT_FAIL
    if len(records) < len(REFERENCE_TABLE):
        print(f"missing variety: {REFERENCE_TABLE[len(records)][0]}", file=sys.stderr)
        return EXIT_FAIL
    _print_rows(args, ["variety", "surface", "value"], rows)
    _print_err(f"mismatch: {line}" for line in mismatches if line)
    return EXIT_FAIL if any(mismatches) else EXIT_OK


def cmd_validate(args) -> int:
    db = _load_db(args.db if args.file is None else args.file)
    reports = [None] * len(db)
    for i, analysis in analyse_each(db.records):
        reports[i] = analysis.report
    _print_err(f"{rep.name}: {problem}" for rep in reports if not rep.ok for problem in rep.problems)
    flags = ("smooth", "complete", "round_trip", "fano", "ok")
    rows = [{"variety": rep.name, **{f: str(getattr(rep, f)).lower() for f in flags}} for rep in reports]
    _print_rows(args, ["variety", *flags], rows)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_FAIL


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help formatter, set up only when it formats help, usage
    or an error.

    argparse makes a formatter for every ``add_argument`` to check the
    metavar, which reads no attribute of the formatter. The stock
    constructor asks ``shutil`` for the terminal width, so building the
    parser would import ``shutil`` (with ``bz2``, ``lzma`` and ``fnmatch``),
    and it compiles two patterns and makes a section, although nothing is
    printed. Here the constructor keeps its arguments, and the first read
    of an attribute not set runs the stock constructor with them, so the
    output is the stock output.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        self._deferred = (prog, indent_increment, max_help_position, width)

    def __getattr__(self, name):
        # called only for attributes not set: the first call sets them all,
        # and after it a missing attribute is really missing
        deferred = self.__dict__.pop("_deferred", None)
        if deferred is None:
            raise AttributeError(name)
        argparse.HelpFormatter.__init__(self, *deferred)
        return getattr(self, name)


def _add_common_options(parser, suppress: bool) -> None:
    # the same options hang off the main parser (with real defaults) and off
    # every subcommand (defaulting to SUPPRESS, so a flag given before the
    # verb is not clobbered and a flag given after the verb wins)
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--db",
        metavar="PATH",
        help="atlas file (default: bundled database)",
        **({"default": None} if not suppress else kwargs),
    )
    parser.add_argument(
        "--format",
        choices=("tsv", "json"),
        help="output format (default tsv)",
        **({"default": "tsv"} if not suppress else kwargs),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="accepted for compatibility and ignored: every command runs in one thread",
        **({"default": 1} if not suppress else kwargs),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfano",
        description="Smooth toric Fano 4-folds: exact second Chern character "
        "intersection numbers on invariant surfaces.",
        formatter_class=_HelpFormatter,
    )
    _add_common_options(parser, suppress=False)
    # the prog that argparse would otherwise work out by formatting a usage
    # line: the main parser has no positional argument before the verb
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)

    def subparser(name, func, help_text):
        p = sub.add_parser(name, help=help_text, formatter_class=_HelpFormatter)
        _add_common_options(p, suppress=True)
        p.set_defaults(func=func)
        return p

    subparser("list", cmd_list, "list varieties with ray/collection counts")

    p = subparser("show", cmd_show, "print one variety's rays, collections and relations")
    p.add_argument("name")

    p = subparser("ch2", cmd_ch2, "second Chern character values on invariant surfaces")
    p.add_argument("name")
    p.add_argument(
        "--surface",
        type=_parse_surface,
        metavar="I,J",
        help="single 2-cone as two 1-based ray indices",
    )

    p = subparser("classify", cmd_classify, "minimum ch2 value and class per variety")
    p.add_argument("names", nargs="*", metavar="NAME")
    p.add_argument("--all", action="store_true", help="classify the whole database")

    subparser(
        "paper-table",
        cmd_paper_table,
        "recompute the bundled reference table and flag any deviation",
    )

    p = subparser("validate", cmd_validate, "run structural checks on an atlas file")
    p.add_argument("file", nargs="?", help="atlas file (default: the --db file, else the bundled database)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AtlasParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _Unreadable as exc:
        print(f"cannot read file: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
