import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import ERRATA

from toricfano.atlas import render, shipped_database
from toricfano.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_shipped(capsys):
    code, out, err = run(capsys, "list")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "variety\trays\tcollections"
    assert len(lines) == 1 + 67
    assert lines[1] == "P4\t5\t1"


def test_list_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "list")
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 67
    assert rows[0] == {"variety": "P4", "rays": "5", "collections": "1"}


def test_list_empty_db(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, "--db", str(empty), "list")
    assert code == 0
    assert out.splitlines() == ["variety\trays\tcollections"]


def test_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("variety X\nrays 2\n1 0 0 0\nend\n")
    code, _, err = run(capsys, "--db", str(bad), "list")
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_missing_file_exits_2(kind, tmp_path, capsys):
    path = tmp_path / "db.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b"# an atlas\nvariety X\xff\n")
    for argv in (["--db", str(path), "list"], ["validate", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        if kind == "not_utf8":
            assert err == "parse error: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte\n"
        else:
            assert err.startswith("cannot read file: [Errno ") and err.endswith(f"{str(path)!r}\n")
            assert len(err.splitlines()) == 1


def test_ch2_single_surface(capsys):
    code, out, _ = run(capsys, "ch2", "H1", "--surface", "3,4")
    assert (code, out.strip()) == (0, "-3/2")
    code, out, _ = run(capsys, "ch2", "R1", "--surface", "1,3")
    assert (code, out.strip()) == (0, "-4")


def test_ch2_rejects_non_cone(capsys):
    code, _, err = run(capsys, "ch2", "H1", "--surface", "1,2")
    assert code == 1
    assert "not a cone" in err


def test_ch2_unknown_variety(capsys):
    code, _, err = run(capsys, "ch2", "XX", "--surface", "1,2")
    assert code == 1
    assert "unknown variety" in err


def test_ch2_malformed_surface_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ch2", "H1", "--surface", "3;4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ch2", "H1", "--surface", "1,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "toricfano ch2: error: argument --surface: surface indices must be integers"


def test_ch2_full_listing(capsys):
    code, out, _ = run(capsys, "ch2", "H1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "variety\tsurface\tvalue\tclassification"
    summary = lines[-1].split("\t")
    assert summary == ["H1", "V(3,4)", "-3/2", "not_nef"]
    # one row per 2-cone plus header and summary
    from toricfano.atlas import record_fan

    fan = record_fan(shipped_database().lookup("H1"))
    assert len(lines) == 1 + len(fan.cones2) + 1


def test_ch2_tsv_and_json_values_agree(capsys):
    _, tsv_out, _ = run(capsys, "ch2", "E1")
    _, json_out, _ = run(capsys, "--format", "json", "ch2", "E1")
    tsv_rows = [line.split("\t") for line in tsv_out.splitlines()[1:]]
    json_rows = json.loads(json_out)
    assert [r[2] for r in tsv_rows] == [r["value"] for r in json_rows]
    assert list(json_rows[0]) == ["variety", "surface", "value", "classification"]


def test_classify_p4(capsys):
    code, out, _ = run(capsys, "classify", "P4")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row == ["P4", "V(1,2)", "5/2", "two_fano"]


def test_classify_124(capsys):
    code, out, _ = run(capsys, "classify", "124")
    row = out.splitlines()[1].split("\t")
    assert code == 0
    assert row[0] == "124"
    assert row[3] == "not_nef"
    assert Fraction(row[2]) <= -4


def test_classify_all_finds_single_two_fano(capsys):
    code, out, _ = run(capsys, "--jobs", "2", "classify", "--all")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "# two_fano 1 of 67: P4"
    winners = [l.split("\t") for l in lines[1:-1] if l.split("\t")[3] == "two_fano"]
    assert winners == [["P4", "V(1,2)", "5/2", "two_fano"]]


def test_classify_names_each_variety_once(capsys):
    once = run(capsys, "classify", "P4")
    assert run(capsys, "classify", "P4", "P4") == once
    code, out, err = run(capsys, "classify", "H1", "P4", "H1", "P4")
    assert (code, err) == (0, "")
    assert [line.split("\t")[0] for line in out.splitlines()] == ["variety", "H1", "P4", "# two_fano 1 of 2: P4"]


def test_classify_requires_names_or_all(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1


def test_classify_unknown_variety(capsys):
    assert run(capsys, "classify", "P4", "XX") == (1, "", "unknown variety: XX\n")


def test_classify_rejects_invalid_record(tmp_path, capsys):
    text = (
        "variety bad\nrays 5\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n-2 -1 -1 -1\n"
        "collections 1\n1 2 3 4 5\nend\n"
    )
    db = tmp_path / "bad.txt"
    db.write_text(text)
    code, _, err = run(capsys, "--db", str(db), "classify", "--all")
    assert code == 1
    assert "validation failed" in err


def test_paper_table_flags_only_the_known_row(capsys):
    code, out, err = run(capsys, "paper-table")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "variety\tsurface\tvalue"
    assert len(lines) == 1 + 66
    mismatches = [l for l in err.splitlines() if l.startswith("mismatch:")]
    assert len(mismatches) == 1
    [((name, _), erratum)] = ERRATA.items()
    assert name in mismatches[0]
    assert str(erratum.corrected) in mismatches[0] and str(erratum.printed) in mismatches[0]


def test_paper_table_json_row_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "paper-table")
    rows = json.loads(out)
    assert len(rows) == 66
    assert list(rows[0]) == ["variety", "surface", "value"]
    assert rows[0] == {"variety": "E1", "surface": "V(2,3)", "value": "-2"}


def _atlas_file(tmp_path, records):
    from toricfano.atlas import AtlasDatabase

    path = tmp_path / "atlas.txt"
    path.write_text(render(AtlasDatabase(tuple(records))))
    return str(path)


def test_paper_table_names_a_missing_reference_variety(tmp_path, capsys):
    path = _atlas_file(tmp_path, [rec for rec in shipped_database() if rec.name != "G3"])
    assert run(capsys, "--db", path, "paper-table") == (1, "", "missing variety: G3\n")


def test_paper_table_flags_a_reference_surface_that_is_not_a_cone(tmp_path, capsys):
    _, shipped_out, shipped_err = run(capsys, "paper-table")
    db = shipped_database()
    # U1 has no 2-cone (1, 5), the surface of the G1 row
    u1 = db.lookup("U1")
    records = [u1._replace(name="G1") if rec.name == "G1" else rec for rec in db]
    code, out, err = run(capsys, "--db", _atlas_file(tmp_path, records), "paper-table")
    assert code == 1
    rows = shipped_out.splitlines()
    g1 = next(i for i, row in enumerate(rows) if row.startswith("G1\t"))
    rows[g1] = "G1\tV(1,5)\tn/a"
    assert out.splitlines() == rows
    assert err.splitlines() == ["mismatch: G1 V(1,5): surface is not a cone"] + shipped_err.splitlines()


def test_paper_table_detects_corrupted_ray(tmp_path, capsys):
    db = shipped_database()
    records = []
    for rec in db:
        if rec.name == "E1":
            rec = rec._replace(rays=db.lookup("E2").rays)
        records.append(rec)
    from toricfano.atlas import AtlasDatabase

    path = tmp_path / "corrupt.txt"
    path.write_text(render(AtlasDatabase(tuple(records))))
    code, _, err = run(capsys, "--db", str(path), "paper-table")
    assert code == 1
    assert any("E1" in l for l in err.splitlines())


def test_validate_shipped_default(capsys):
    code, out, err = run(capsys, "validate")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "variety\tsmooth\tcomplete\tround_trip\tfano\tok"
    assert len(lines) == 1 + 67
    assert all(line.endswith("\ttrue") for line in lines[1:])


def test_validate_flags_bad_records(tmp_path, capsys):
    h1 = shipped_database().lookup("H1")
    bad = h1._replace(name="H1x", collections=h1.collections + ((1, 2, 8),))
    from toricfano.atlas import AtlasDatabase

    path = tmp_path / "wrong.txt"
    path.write_text(render(AtlasDatabase((bad,))))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    row = out.splitlines()[1].split("\t")
    assert row[0] == "H1x"
    assert row[3] == "false"  # round_trip
    assert "round-trip" in err


def test_validate_caps_the_round_trip_lists(tmp_path, capsys):
    import itertools

    from toricfano.atlas import AtlasDatabase

    # record 117 with every 3- to 5-subset that holds one of its
    # collections added as a line: the same fan, and 472 declared
    # collections that are no minimal non-face
    rec = shipped_database().lookup("117")
    declared = set(rec.collections)
    supersets = [
        sub
        for size in (3, 4, 5)
        for sub in itertools.combinations(range(1, 11), size)
        if sub not in declared and any(set(c) < set(sub) for c in declared)
    ]
    bad = rec._replace(name="117x", collections=rec.collections + tuple(supersets))
    path = tmp_path / "supersets.txt"
    path.write_text(render(AtlasDatabase((bad,))))
    code, out, err = run(capsys, "validate", str(path))
    shown = sorted(supersets)[:10]
    assert len(supersets) == 472
    assert code == 1 and out.splitlines()[1] == "117x\ttrue\ttrue\tfalse\ttrue\tfalse"
    assert err.splitlines() == [
        f"117x: collections do not round-trip (declared-only {shown} and {len(supersets) - 10} more, derived-only [])"
    ]


def test_validate_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("variety\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_validate_quotes_a_long_malformed_line_in_bounded_form(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    line = "bogus " + "y" * 50_000
    path.write_text(line + "\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 1: expected 'variety <name>', got: {line[:80]}...\n"


def test_validate_rejects_a_long_name_in_bounded_form(tmp_path, capsys):
    from toricfano.atlas import MAX_NAME

    path = tmp_path / "long-name.txt"
    name = "z" * 50_000
    path.write_text(f"variety {name}\nrays 1\n1 0 0 0\nend\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 1: variety name longer than {MAX_NAME} characters: {name[:MAX_NAME]}...\n"


def test_show_prints_relations(capsys):
    code, out, _ = run(capsys, "show", "H1")
    assert code == 0
    assert "v5 = (2, 0, -1, -1)" in out
    assert "degree" in out
    code, _, err = run(capsys, "show", "nosuch")
    assert code == 1


def test_show_derives_the_relations_of_a_record_without_collections(tmp_path, capsys):
    from toricfano.atlas import AtlasDatabase

    p4 = shipped_database().lookup("P4")._replace(collections=None)
    cone = p4._replace(name="C", rays=p4.rays[:4] + ((1, 1, 1, 1),))
    path = tmp_path / "no-collections.txt"
    path.write_text(render(AtlasDatabase((p4, cone))))
    code, out, err = run(capsys, "--db", str(path), "show", "P4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "  collections (derived):",
        "    {1, 2, 3, 4, 5}: v1 + v2 + v3 + v4 + v5 = 0  degree 5",
    ]
    # the rays of C span no complete fan, so there are no relations to show
    code, out, err = run(capsys, "--db", str(path), "show", "C")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2] == "  collections (derived):"
    assert out.splitlines()[-1].startswith("  (relations unavailable: not a Fano face fan: wall (1, 2, 3)")


def test_validation_skips_the_non_face_search_where_the_round_trip_is_vacuous(tmp_path, monkeypatch, capsys):
    from toricfano import atlas
    from toricfano.atlas import AtlasDatabase, validate_record

    database = shipped_database()  # loaded, M5 derived, before anything is counted
    searched = []
    search = atlas.minimal_nonfaces
    monkeypatch.setattr(atlas, "minimal_nonfaces", lambda built: searched.append(built.rays) or search(built))
    atlas.analyse.cache_clear()
    p4 = database.lookup("P4")._replace(collections=None)
    # without collections, or with derived ones, the round trip holds underived
    for rec in (p4, database.lookup("M5")):
        report = validate_record(rec)
        assert report.ok and report.round_trip
    assert searched == []
    # show derives the collections it prints
    path = tmp_path / "no-collections.txt"
    path.write_text(render(AtlasDatabase((p4,))))
    code, out, err = run(capsys, "--db", str(path), "show", "P4")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "  collections (derived):",
        "    {1, 2, 3, 4, 5}: v1 + v2 + v3 + v4 + v5 = 0  degree 5",
    ]
    assert searched == [p4.rays]


def test_single_surface_query_computes_only_the_cone_bases_it_reads(monkeypatch, capsys):
    from collections import Counter

    from toricfano import atlas, chern, fan

    database = shipped_database()
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    atlas.analyse.cache_clear()
    adjugates4 = fan.adjugates4

    def counted_bases(matrices):
        calls["bases"] += len(matrices)
        return adjugates4(matrices)

    monkeypatch.setattr(fan, "adjugates4", counted_bases)
    for name, home in (("validate_fan", fan), ("classify", chern)):
        wrapped = counted(name, getattr(home, name))
        for module in (fan, atlas, chern):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for name, surface, value in (("R1", (1, 3), "-4"), ("H1", (3, 4), "-3/2"), ("124", (1, 7), "-4")):
        calls.clear()
        code, out, _ = run(capsys, "ch2", name, "--surface", "{},{}".format(*surface))
        assert (code, out) == (0, value + "\n")
        walls = [tau for tau in atlas.record_fan(database.lookup(name)).walls if set(surface) <= set(tau)]
        assert calls["bases"] <= 1 + len(walls), (name, calls)
        assert calls["validate_fan"] == calls["classify"] == 0, (name, calls)


def test_single_surface_query_on_the_star_answers_as_the_full_fan(database, fans, monkeypatch, capsys):
    # every surface query on the bundled atlas, indices 0..n+1 and I = J
    # included, on the star of sigma and on the full fan; the full fan takes
    # the star's place in the same command
    import argparse

    from toricfano import cli, fan

    def ask(rec, i, j, fmt):
        args = argparse.Namespace(db=None, format=fmt, name=rec.name, surface=(i, j))
        return cli.cmd_ch2(args), *capsys.readouterr()

    built = []

    def recorded(*args):
        built.append(free_subsets(*args))
        return built[-1]

    free_subsets = fan._free_subsets
    monkeypatch.setattr(fan, "_free_subsets", recorded)
    star = {}
    for rec in database:
        n = len(rec.rays)
        for i in range(n + 2):
            for j in range(n + 2):
                for fmt in ("tsv", "json"):
                    built.clear()
                    star[rec.name, i, j, fmt] = ask(rec, i, j, fmt)
                    # only the maximal cones that contain sigma are built
                    sigma = {i, j}
                    full = [mc for mc in fans[rec.name].maxcones if len(sigma) == 2 and sigma <= set(mc)]
                    assert built == [full], (rec.name, i, j)
    assert {code for code, _, _ in star.values()} == {0, 1}

    full_fans = {(rec.rays, rec.collections): fans[rec.name] for rec in database}
    monkeypatch.setattr(cli, "build_star", lambda rays, collections, sigma: full_fans[rays, collections])
    for (name, i, j, fmt), answer in star.items():
        assert ask(database.lookup(name), i, j, fmt) == answer, (name, i, j, fmt)


def test_common_flags_accepted_before_and_after_verb(capsys):
    _, before, _ = run(capsys, "--format", "json", "--jobs", "2", "classify", "H1")
    _, after, _ = run(capsys, "classify", "H1", "--format", "json", "--jobs", "2")
    assert before == after
    # a flag after the verb overrides one before it
    _, out, _ = run(capsys, "--format", "tsv", "classify", "H1", "--format", "json")
    json.loads(out)


def test_output_is_deterministic(capsys):
    _, first_out, first_err = run(capsys, "paper-table")
    _, second_out, second_err = run(capsys, "paper-table")
    assert first_out == second_out
    assert first_err == second_err
    _, a, _ = run(capsys, "--jobs", "1", "classify", "H1", "E1", "117")
    _, b, _ = run(capsys, "--jobs", "3", "classify", "H1", "E1", "117")
    assert a == b


# a degenerate record: v3 = v1 + v2, so cones (1, 2, 3, *) have determinant 0
DEGENERATE = (
    "rays 5\n1 0 0 0\n0 1 0 0\n1 1 0 0\n0 0 0 1\n-1 -1 -1 -1\n"
    "collections 1\n1 2 3 4 5\nend\n"
)
DEGENERATE_ERR = [
    "cone (1, 2, 3, 4) is degenerate",
    "cone (1, 2, 3, 5) is degenerate",
    "validation failed",
]


def test_ch2_validates_a_user_atlas(tmp_path, capsys):
    db = tmp_path / "degenerate.txt"
    db.write_text("variety D\n" + DEGENERATE)
    for extra in ([], ["--surface", "1,2"]):
        code, out, err = run(capsys, "--db", str(db), "ch2", "D", *extra)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"D: {line}" for line in DEGENERATE_ERR]


def test_validate_does_not_call_a_degenerate_record_complete(tmp_path, capsys):
    db = tmp_path / "degenerate.txt"
    db.write_text("variety D\n" + DEGENERATE)
    # completeness is not proved when the side and point checks cannot run
    code, out, err = run(capsys, "validate", str(db))
    assert (code, out.splitlines()[1]) == (1, "D\tfalse\tfalse\tfalse\tfalse\tfalse")
    assert err.splitlines() == [f"D: {line}" for line in DEGENERATE_ERR[:2]]


def test_show_names_the_degenerate_cone_of_a_record(tmp_path, capsys):
    db = tmp_path / "degenerate.txt"
    db.write_text("variety D\n" + DEGENERATE)
    code, out, err = run(capsys, "--db", str(db), "show", "D")
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "  collections:",
        "  (relations unavailable: cone (1, 2, 3, 4) is degenerate)",
        "    {1, 2, 3, 4, 5}",
    ]


def test_show_prints_no_relations_for_a_ray_swap_with_cones_on_one_side_of_a_wall(tmp_path, capsys):
    from toricfano.atlas import AtlasDatabase

    # swapping v1 and v7 of H1 keeps every cone unimodular, but six walls have
    # both their cones on one side and cones overlap: show must print no relations
    h1 = shipped_database().lookup("H1")
    rays = list(h1.rays)
    rays[0], rays[6] = rays[6], rays[0]
    path = tmp_path / "swap.txt"
    path.write_text(render(AtlasDatabase((h1._replace(name="H1s", rays=tuple(rays)),))))
    code, out, err = run(capsys, "--db", str(path), "show", "H1s")
    assert (code, err) == (0, "")
    assert out.splitlines()[9:] == [
        "  collections:",
        "  (relations unavailable: cones (1, 3, 4, 7) and (1, 3, 4, 8) lie on one side of wall (1, 3, 4))",
        "    {1, 2}",
        "    {7, 8}",
        "    {1, 6}",
        "    {2, 7}",
        "    {6, 8}",
        "    {3, 4, 5}",
    ]


def test_paper_table_validates_a_user_atlas(tmp_path, capsys):
    text = render(shipped_database()).replace("variety E1\n", "variety E1x\n", 1)
    db = tmp_path / "degenerate-e1.txt"
    db.write_text("variety E1\n" + DEGENERATE + "\n" + text)
    code, out, err = run(capsys, "--db", str(db), "paper-table")
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"E1: {line}" for line in DEGENERATE_ERR]


def test_every_command_that_computes_validates_a_bundled_record(tmp_path, monkeypatch, capsys):
    from toricfano import atlas, cli

    # H1 with v1 and v7 swapped, as in the show test above, put into the
    # bundled atlas: bundled or from a file, a command refuses it the same way
    database = shipped_database()
    h1 = database.lookup("H1")
    rays = list(h1.rays)
    rays[0], rays[6] = rays[6], rays[0]
    broken = atlas.AtlasDatabase(
        tuple(rec._replace(rays=tuple(rays)) if rec.name == "H1" else rec for rec in database)
    )
    path = tmp_path / "swap.txt"
    path.write_text(render(broken))
    atlas.analyse.cache_clear()
    monkeypatch.setattr(cli, "shipped_database", lambda: broken)
    code, out, err = run(capsys, "--db", str(path), "ch2", "H1")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[0] == "H1: cones (1, 3, 4, 7) and (1, 3, 4, 8) lie on one side of wall (1, 3, 4)"
    assert lines[-1] == "H1: validation failed"
    for argv in (["ch2", "H1"], ["paper-table"], ["classify", "H1"], ["classify", "--all"]):
        for db_args in ([], ["--db", str(path)]):
            assert run(capsys, *db_args, *argv) == (1, "", err), (db_args, argv)
    assert run(capsys, "--db", str(path), "ch2", "H1", "--surface", "3,4") == (1, "", err)


def _shuffled_atlas(tmp_path):
    """The bundled atlas in a fixed-seed shuffle, written with M5's derived
    collections, as ``--db`` arguments and the records read back."""
    import random

    from toricfano.atlas import AtlasDatabase, parse

    records = list(shipped_database())
    random.Random(18).shuffle(records)
    path = tmp_path / "shuffled.txt"
    path.write_text(render(AtlasDatabase(tuple(records))))
    return ["--db", str(path)], parse(path.read_text())


@pytest.mark.parametrize("shuffled", [False, True], ids=["shipped", "shuffled"])
def test_classify_all_analyses_each_record_once(shuffled, tmp_path, monkeypatch, capsys):
    from collections import Counter

    from toricfano import atlas, fan

    database = shipped_database()  # loaded, M5 derived, before anything is counted
    db_args = []
    if shuffled:
        # M5's collections are read from the file, so its round trip derives them
        db_args, database = _shuffled_atlas(tmp_path)
    fans, calls, derived = Counter(), Counter(), Counter()
    # every fan, converted rays or not, is set up by Fan._attach
    fan_attach = fan.Fan._attach

    def attach(self, rays, tables):
        fan_attach(self, rays, tables)
        fans[self.rays] += 1

    keys = {
        "build_fan": lambda rays, collections: (len(rays), tuple(collections)),
        "build_fan_from_rays": lambda rays: tuple(map(tuple, rays)),
    }

    def counted(name, original):
        def wrapper(*args):
            calls[name, keys[name](*args)] += 1
            return original(*args)

        return wrapper

    # a derivation is a call that finds the tables without their non-faces,
    # counted by the ray count and the set it derives
    derive = fan.minimal_nonfaces

    def counted_derivation(built):
        fresh = built.tables.nonfaces is None
        nonfaces = derive(built)
        derived[built.ray_count, frozenset(nonfaces)] += fresh
        return nonfaces

    atlas.analyse.cache_clear()
    monkeypatch.setattr(fan.Fan, "_attach", attach)
    for name in keys:
        wrapped = counted(name, getattr(fan, name))
        for module in (fan, atlas):
            monkeypatch.setattr(module, name, wrapped)
    for module in (fan, atlas):
        monkeypatch.setattr(module, "minimal_nonfaces", counted_derivation)
    code, out, _ = run(capsys, *db_args, "classify", "--all")
    assert code == 0 and out.splitlines()[-1] == "# two_fano 1 of 67: P4"
    rays = Counter(tuple(tuple(v) for v in rec.rays) for rec in database)
    types = Counter({(len(rec.rays), rec.collections): 1 for rec in database})
    declared = [rec for rec in database if not rec.collections_derived]
    # every record gets one fan, and each combinatorial type builds its
    # tables once, wherever its records sit; the declared collections of
    # every record round-trip, decided from one derivation of the non-faces
    # per type (the bundled M5's were derived, so its round trip is vacuous)
    assert fans == rays
    assert len(declared) == (67 if shuffled else 66)
    declared_types = {(len(rec.rays), rec.collections) for rec in declared}
    assert derived == Counter((n, frozenset(collections)) for n, collections in declared_types)
    assert Counter({key: n for (name, key), n in calls.items() if name == "build_fan"}) == types
    assert len(types) == 17
    assert not any(name == "build_fan_from_rays" for name, _ in calls)

    # a record whose collections fail the round trip derives its non-faces
    # once, as its own type, and fails the pass naming the difference
    h1 = database.lookup("H1")
    extra = h1._replace(name="H1x", collections=h1.collections + ((1, 2, 3),))
    path = tmp_path / "extra.txt"
    path.write_text(render(atlas.AtlasDatabase(database.records + (extra,))))
    calls.clear()
    derived.clear()
    code, out, err = run(capsys, "--db", str(path), "classify", "--all")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "H1x: collections do not round-trip (declared-only [(1, 2, 3)], derived-only [])",
        "H1x: validation failed",
    ]
    # the file declares M5's collections too, and H1x derives those of H1
    h1x = (len(h1.rays), frozenset(h1.collections))
    assert derived == Counter([(n, frozenset(collections)) for n, collections in types] + [h1x])

    # paper-table builds the tables of each type in the reference table once,
    # bundled or from a file, and sums each row's surface on that type's fan
    from toricfano.atlas import REFERENCE_TABLE, SHIPPED_PATH

    listed = {row[0] for row in REFERENCE_TABLE}
    types = Counter({(len(rec.rays), rec.collections): 1 for rec in database if rec.name in listed})
    assert len(types) == 16
    tables = []
    tables_init = fan.FanTables.__init__

    def counted_tables(self, maxcones):
        tables.append(self)
        tables_init(self, maxcones)

    monkeypatch.setattr(fan.FanTables, "__init__", counted_tables)
    calls.clear()
    code, _, _ = run(capsys, *db_args, "paper-table")
    assert code == 1  # the H2 misprint, see ERRATA
    assert Counter({key: n for (name, key), n in calls.items() if name == "build_fan"}) == types
    # the shipped file declares no collections for M5, so its fan is built from its rays
    for args in dict.fromkeys([tuple(db_args), (), ("--db", str(SHIPPED_PATH))]):
        tables.clear()
        code, _, _ = run(capsys, *args, "paper-table")
        assert code == 1 and len(tables) == 16, args


def test_validate_builds_no_face_table(tmp_path, monkeypatch, capsys):
    from toricfano import atlas, fan

    db_args, _ = _shuffled_atlas(tmp_path)
    shipped_database()  # loaded, M5 derived, before anything is counted
    built = []
    build_faces = fan.FanTables._build_faces
    monkeypatch.setattr(fan.FanTables, "_build_faces", lambda tables: built.append(tables) or build_faces(tables))
    atlas.analyse.cache_clear()
    # validation reads the walls alone, and classify builds the faces and
    # 2-cones of each of the 17 types once, for its sweep
    for args in ([], db_args):
        code, _, _ = run(capsys, *args, "validate")
        assert code == 0 and built == []
    code, _, _ = run(capsys, *db_args, "classify", "--all")
    assert code == 0 and len(built) == 17


def test_a_pass_holds_one_table_set_at_a_time(tmp_path, monkeypatch, capsys):
    import weakref

    from toricfano import atlas, fan

    db_args, _ = _shuffled_atlas(tmp_path)
    p4 = shipped_database().lookup("P4")
    bare = tmp_path / "bare.txt"
    bare.write_text(
        render(atlas.AtlasDatabase(tuple(p4._replace(name=f"P4_{k}", collections=None) for k in range(3))))
    )
    alive = set()
    at_build = []  # how many table sets are alive, the new one included, as each is built

    class Tracked(fan.FanTables):
        def __init__(self, maxcones):
            super().__init__(maxcones)
            alive.add(id(self))
            weakref.finalize(self, alive.discard, id(self))
            at_build.append(len(alive))

    atlas.analyse.cache_clear()
    monkeypatch.setattr(fan, "FanTables", Tracked)
    for argv in (
        ["classify", "--all"],
        [*db_args, "classify", "--all"],
        ["validate"],
        ["validate", db_args[1]],
        ["validate", str(bare)],
    ):
        at_build.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0, argv
        assert len(at_build) == (3 if str(bare) in argv else 17), argv
        assert max(at_build) == 1, (argv, at_build)


def test_validate_builds_each_type_once_wherever_its_records_sit(tmp_path, monkeypatch, capsys):
    from collections import Counter

    from toricfano import atlas, fan
    from toricfano.atlas import AtlasDatabase, parse, validate_record

    db = shipped_database()
    g1, p4 = db.lookup("G1"), db.lookup("P4")
    swapped = list(g1.rays)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    records = (
        g1,
        db.lookup("H1"),
        p4._replace(name="P4_rays", collections=None),
        db.lookup("G2"),
        g1._replace(name="G1_swap_1_3", rays=tuple(swapped)),
        p4._replace(name="P4_none", collections=()),
        db.lookup("H2"),
        p4,
        db.lookup("G3"),
    )
    path = tmp_path / "shuffled.txt"
    path.write_text(render(AtlasDatabase(records)))

    # what validating each record in file order prints
    atlas.analyse.cache_clear()
    reports = [validate_record(rec) for rec in parse(path.read_text())]
    assert [rep.ok for rep in reports] == [True, True, True, True, False, False, True, True, True]
    flags = ("smooth", "complete", "round_trip", "fano", "ok")
    out = "".join(
        "\t".join([rep.name] + [str(getattr(rep, f)).lower() for f in flags]) + "\n" for rep in reports
    )
    err = "".join(f"{rep.name}: {problem}\n" for rep in reports for problem in rep.problems if not rep.ok)

    built = Counter()
    build_fan = fan.build_fan

    def counted(rays, collections):
        built[len(rays), tuple(collections)] += 1
        return build_fan(rays, collections)

    atlas.analyse.cache_clear()
    monkeypatch.setattr(atlas, "build_fan", counted)
    code, stdout, stderr = run(capsys, "validate", str(path))
    assert (code, stdout, stderr) == (1, "variety\tsmooth\tcomplete\tround_trip\tfano\tok\n" + out, err)
    # G1, G2, G3 and the swap are one type, H1 and H2 another, and P4 and
    # P4_none two more; P4_rays has no collections and takes the face-fan path
    assert built == Counter({(len(rec.rays), rec.collections): 1 for rec in records if rec.collections is not None})
    assert len(built) == 4


def test_validate_reads_the_db_file(tmp_path, capsys):
    p4 = shipped_database().lookup("P4")
    bad = p4._replace(name="P4x", rays=p4.rays[:4] + ((-2, -1, -1, -1),))
    from toricfano.atlas import AtlasDatabase

    path = tmp_path / "bad.txt"
    path.write_text(render(AtlasDatabase((bad,))))
    code, out, err = run(capsys, "--db", str(path), "validate")
    assert code == 1
    assert out.splitlines()[1:] == ["P4x\tfalse\ttrue\tfalse\tfalse\tfalse"]
    assert err.splitlines() == ["P4x: cone (2, 3, 4, 5) has determinant 2"]


def test_show_does_not_build_a_record_over_the_ray_bound(tmp_path, monkeypatch, capsys):
    from toricfano import atlas

    def no_fan(*args):
        raise AssertionError("a fan was built for a record over the ray bound")

    monkeypatch.setattr(atlas, "build_fan", no_fan)
    monkeypatch.setattr(atlas, "build_fan_from_rays", no_fan)
    rays = tuple((1, i, i * i, 0) for i in range(12)) + ((0, 0, 0, 1),)
    path = tmp_path / "big.txt"
    path.write_text(render(atlas.AtlasDatabase((atlas.VarietyRecord("big", rays, ((1, 2), (3, 4, 5))),))))
    code, out, err = run(capsys, "--db", str(path), "show", "big")
    assert (code, err) == (0, "")
    assert "  (relations unavailable: 13 rays exceed the bound of 12 for a smooth Fano 4-fold" in out
    assert out.splitlines()[-2:] == ["    {1, 2}", "    {3, 4, 5}"]


def test_validate_names_a_wall_with_both_cones_on_one_side(tmp_path, capsys):
    # swapping rays 2 and 6 of E3 is no symmetry of its collections: the
    # walls still pair up, but some pairs of cones lie on one side
    e3 = shipped_database().lookup("E3")
    rays = list(e3.rays)
    rays[1], rays[5] = rays[5], rays[1]
    from toricfano.atlas import AtlasDatabase

    path = tmp_path / "swapped.txt"
    path.write_text(render(AtlasDatabase((e3._replace(name="E3s", rays=tuple(rays)),))))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out.splitlines()[1] == "E3s\ttrue\tfalse\tfalse\tfalse\tfalse"
    assert err.splitlines()[0] == "E3s: cones (2, 3, 4, 6) and (2, 3, 4, 7) lie on one side of wall (2, 3, 4)"


def test_validate_caps_the_problems_of_a_record(tmp_path, capsys):
    from toricfano.atlas import MAX_PROBLEMS

    path = tmp_path / "zeros.txt"
    path.write_text("variety Z\nrays 12\n" + "0 0 0 0\n" * 12 + "end\n")
    code, _, err = run(capsys, "validate", str(path))
    lines = err.splitlines()
    assert code == 1
    assert len(lines) == MAX_PROBLEMS + 1
    assert all(line.startswith("Z: ") for line in lines)
    assert lines[-1] == f"Z: {23 - MAX_PROBLEMS} more problems not shown"


def _random_ray_record(tmp_path):
    # 12 distinct primitive rays with entries in -3..3 and no collections:
    # their face fan fails validate_fan with 40 problems
    import math
    import random

    rng = random.Random(5)
    rays = []
    while len(rays) < 12:
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        if any(v) and math.gcd(*v) == 1 and v not in rays:
            rays.append(v)
    path = tmp_path / "random-rays.txt"
    path.write_text("variety Z\nrays 12\n" + "".join(" ".join(map(str, v)) + "\n" for v in rays) + "end\n")
    return path


def _assert_capped_face_fan_error(message):
    from toricfano.atlas import MAX_PROBLEMS

    problems = message.split("; ")
    assert problems[0].startswith("not a Fano face fan: cone ")
    assert len(problems) == MAX_PROBLEMS + 1
    assert problems[-1] == "30 more problems not shown"
    assert len(message) < 500


def test_validate_caps_the_face_fan_error(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(_random_ray_record(tmp_path)))
    assert code == 1
    assert out.splitlines()[1] == "Z\tfalse\tfalse\tfalse\tfalse\tfalse"
    (line,) = err.splitlines()
    assert line.startswith("Z: ")
    _assert_capped_face_fan_error(line[len("Z: ") :])


def test_show_caps_the_face_fan_error(tmp_path, capsys):
    code, out, err = run(capsys, "--db", str(_random_ray_record(tmp_path)), "show", "Z")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2] == "  collections (derived):"
    line = out.splitlines()[-1]
    assert line.startswith("  (relations unavailable: ") and line.endswith(")")
    _assert_capped_face_fan_error(line[len("  (relations unavailable: ") : -1])


def test_batch_commands_compute_no_primitive_relation(tmp_path, monkeypatch, capsys):
    from toricfano import cli, fan

    def no_relation(*args):
        raise AssertionError("a primitive relation was computed")

    monkeypatch.setattr(fan, "primitive_relation", no_relation)
    monkeypatch.setattr(cli, "primitive_relation", no_relation)
    db = tmp_path / "shipped.txt"
    db.write_text(render(shipped_database()))
    assert run(capsys, "classify", "--all")[0] == 0
    assert run(capsys, "validate")[0] == 0
    assert run(capsys, "validate", str(db))[0] == 0
    assert run(capsys, "--db", str(db), "ch2", "H1")[0] == 0
    assert run(capsys, "--db", str(db), "ch2", "H1", "--surface", "3,4")[0] == 0
    assert run(capsys, "--db", str(db), "paper-table")[0] == 1  # the known H2 row


NON_FANO_BUNDLE = (
    "variety B\nrays 6\n1 0 0 0\n0 1 0 0\n0 0 1 0\n-1 -1 -1 0\n0 0 0 1\n3 0 0 -1\n"
    "collections 2\n5 6\n1 2 3 4\nend\n"
)


def test_validate_and_show_name_the_wall_of_a_non_fano_record(tmp_path, capsys):
    # P(O + O + O + O(3)) over P1 is smooth and complete, and -K . V((1, 2, 3)) = -1
    db = tmp_path / "bundle.txt"
    db.write_text(NON_FANO_BUNDLE)
    code, out, err = run(capsys, "validate", str(db))
    assert code == 1
    assert out.splitlines()[1] == "B\ttrue\ttrue\ttrue\tfalse\tfalse"
    assert err == "B: anticanonical degree -1 on the curve of wall (1, 2, 3)\n"
    code, out, err = run(capsys, "--db", str(db), "show", "B")
    assert (code, err) == (0, "")
    # its primitive relations exist, and the first one is the one at fault
    assert out.splitlines()[-3:] == [
        "  (not Fano: anticanonical degree -1 on the curve of wall (1, 2, 3))",
        "    {5, 6}: v5 + v6 = 3*v1  degree -1",
        "    {1, 2, 3, 4}: v1 + v2 + v3 + v4 = 0  degree 4",
    ]


@pytest.mark.parametrize("columns", [None, "60", "200"], ids=["unset", "60", "200"])
def test_help_and_usage_errors_are_those_of_the_stock_formatter(columns, monkeypatch, capsys):
    # the parser asks for the terminal width only when it formats, and then
    # prints what argparse's own formatter prints at that width
    import argparse

    from toricfano import cli

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    argvs = (
        ["--help"],
        ["ch2", "--help"],
        ["classify", "--help"],
        ["validate", "--help"],
        [],
        ["ch2"],
        ["ch2", "X", "--surface", "1"],
        ["--format", "xml", "list"],
    )

    def outputs():
        printed = []
        for argv in argvs:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            printed.append((exc.value.code, *capsys.readouterr()))
        return printed

    lazy = outputs()
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    assert outputs() == lazy
    assert len({out for _, out, _ in lazy}) == 5 and all(err.startswith("usage: ") for _, _, err in lazy[4:])


def test_building_and_parsing_set_up_no_help_formatter(monkeypatch):
    # argparse makes a formatter per add_argument, and one to work out the
    # prog of the subcommands unless it is given; none is set up
    import argparse

    from toricfano import cli

    stock = argparse.HelpFormatter.__init__
    made = []

    def counted(self, *args, **kwargs):
        made.append(args)
        stock(self, *args, **kwargs)

    monkeypatch.setattr(argparse.HelpFormatter, "__init__", counted)
    parser = cli.build_parser()
    assert parser.parse_args(["ch2", "H1", "--surface", "3,4"]).surface == (3, 4)
    assert made == []
    assert parser.format_usage().startswith("usage: toricfano ")
    assert len(made) == 1


def test_help_formatter_lacks_what_no_formatter_has():
    from toricfano import cli

    formatter = cli._HelpFormatter("toricfano", width=60)
    # the first read sets the formatter up, and a missing attribute stays missing
    for _ in range(2):
        with pytest.raises(AttributeError):
            formatter.no_such_attribute
    assert formatter._width == 60 and formatter._prog == "toricfano"


def test_the_module_runs_as_a_script(capsys):
    expected = run(capsys, "classify", "P4")
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "toricfano.cli", "classify", "P4"], capture_output=True, text=True, env=env, check=False
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
