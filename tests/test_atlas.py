import pytest

from toricfano.atlas import (
    REFERENCE_TABLE,
    AtlasParseError,
    parse,
    render,
    shipped_database,
    validate_record,
)
from toricfano.fan import build_fan

H1_TEXT = """\
# a record transcribed by hand, with noise the parser must ignore

variety H1
rays 8
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
2 0 -1 -1    # the interesting ray
-1 -1 0 0
0 -1 0 0
1 1 0 0
collections 6
1 2
7 8
1 6
2 7
6 8
3 4 5
end
"""


def test_parse_h1_record(database):
    db = parse(H1_TEXT)
    assert len(db) == 1
    rec = db.lookup("H1")
    assert rec.rays == database.lookup("H1").rays
    assert rec.collections == ((1, 2), (7, 8), (1, 6), (2, 7), (6, 8), (3, 4, 5))
    assert rec.collections_derived is False


def test_parse_empty_input():
    assert len(parse("")) == 0
    assert len(parse("# only comments\n\n   \n")) == 0


def test_parse_reports_ray_arity_with_line_number():
    text = "variety X\nrays 3\n1 0 0 0\n0 1 0 0\nend\n"
    with pytest.raises(AtlasParseError, match=r"line 5: X: expected 3 ray lines, found 2"):
        parse(text)


def test_parse_rejects_wrong_ray_width():
    text = "variety X\nrays 1\n1 0 0\nend\n"
    with pytest.raises(AtlasParseError, match=r"line 3: .*4 integers"):
        parse(text)


def test_parse_rejects_non_integer_tokens():
    text = "variety X\nrays 1\n1 0 0 q\nend\n"
    with pytest.raises(AtlasParseError, match=r"line 3: non-integer token"):
        parse(text)


def test_parse_rejects_duplicate_names():
    record = "variety X\nrays 1\n1 0 0 0\nend\n"
    with pytest.raises(AtlasParseError, match="duplicate variety name"):
        parse(record + record)


def test_parse_rejects_unsorted_collection():
    text = "variety X\nrays 2\n1 0 0 0\n0 1 0 0\ncollections 1\n2 1\nend\n"
    with pytest.raises(AtlasParseError, match="ascending"):
        parse(text)


def test_parse_rejects_out_of_range_collection_index():
    text = "variety X\nrays 2\n1 0 0 0\n0 1 0 0\ncollections 1\n1 3\nend\n"
    with pytest.raises(AtlasParseError, match="outside"):
        parse(text)


def test_parse_rejects_truncated_record():
    with pytest.raises(AtlasParseError, match="unexpected end of input"):
        parse("variety X\nrays 2\n1 0 0 0\n")


def test_render_parse_round_trip(database):
    text = render(database)
    again = parse(text)
    assert len(again) == len(database)
    for a, b in zip(database, again):
        assert (a.name, a.rays, a.collections) == (b.name, b.rays, b.collections)
    # rendering the reparse reproduces the text byte for byte
    assert render(again) == text


def test_shipped_database_has_67_unique_records(database):
    assert len(database) == 67
    names = database.names()
    assert len(set(names)) == 67
    assert names[0] == "P4"
    assert set(names) == {name for name, _, _ in REFERENCE_TABLE} | {"P4"}


def test_shipped_database_spot_checks(database):
    assert database.lookup("E1").rays[4] == (2, -1, -1, -1)
    assert len(database.lookup("117").rays) == 10
    p4 = database.lookup("P4")
    assert len(p4.rays) == 5
    assert p4.collections == ((1, 2, 3, 4, 5),)


def test_shipped_database_derives_m5(database):
    m5 = database.lookup("M5")
    assert m5.collections_derived
    assert m5.collections
    assert all(not rec.collections_derived for rec in database if rec.name != "M5")


def test_shipped_database_is_cached():
    assert shipped_database() is shipped_database()


def test_lookup_unknown_name_raises(database):
    with pytest.raises(KeyError):
        database.lookup("nosuch")


def test_validate_record_passes_shipped_samples(database):
    for name in ("P4", "H1", "M5", "117"):
        report = validate_record(database.lookup(name))
        assert report.ok, report.problems
        assert (report.smooth, report.complete, report.round_trip, report.fano) == (
            True,
            True,
            True,
            True,
        )


def test_validate_record_catches_missing_collection(database):
    from dataclasses import replace

    h1 = database.lookup("H1")
    colls = tuple(c for c in h1.collections if c != (3, 4, 5))
    report = validate_record(replace(h1, collections=colls))
    assert not report.ok
    assert not report.round_trip


def test_validate_record_catches_redundant_collection(database):
    from dataclasses import replace

    h1 = database.lookup("H1")
    report = validate_record(replace(h1, collections=h1.collections + ((1, 2, 8),)))
    # the fan itself is unchanged, only the declaration fails to round-trip
    assert report.smooth and report.complete and report.fano
    assert not report.round_trip
    assert not report.ok


def test_validate_record_catches_non_unimodular_cone(database):
    from dataclasses import replace

    p4 = database.lookup("P4")
    rays = p4.rays[:4] + ((-2, -1, -1, -1),)
    report = validate_record(replace(p4, rays=rays))
    assert not report.smooth
    assert not report.ok


def test_validate_record_catches_malformed_rays(database):
    from dataclasses import replace

    p4 = database.lookup("P4")
    report = validate_record(replace(p4, rays=p4.rays[:4] + ((-2, -2, -2, -2),)))
    assert not report.ok
    assert any("not primitive" in p for p in report.problems)

    report = validate_record(replace(p4, rays=p4.rays[:4] + (p4.rays[0],)))
    assert not report.ok
    assert any("coincide" in p for p in report.problems)

    report = validate_record(replace(p4, rays=p4.rays[:4] + ((0, 0, 0, 0),)))
    assert not report.ok
    assert any("zero" in p for p in report.problems)


def test_validate_record_catches_unused_ray(database):
    from dataclasses import replace

    p4 = database.lookup("P4")
    rays = p4.rays + ((1, 1, 0, 0),)
    colls = ((1, 2, 3, 4, 5), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))
    report = validate_record(replace(p4, rays=rays, collections=colls))
    assert not report.ok
    assert any("no maximal cone" in p for p in report.problems)


def test_validate_record_bounds_the_ray_count(monkeypatch):
    from toricfano import atlas

    def no_fan(*args):
        raise AssertionError("a fan was built for a record over the ray bound")

    monkeypatch.setattr(atlas, "build_fan", no_fan)
    monkeypatch.setattr(atlas, "build_fan_from_rays", no_fan)
    rays = tuple((1, i, i * i, 0) for i in range(12)) + ((0, 0, 0, 1),)
    for collections in (None, ((1, 2), (3, 4, 5))):
        report = validate_record(atlas.VarietyRecord("big", rays, collections))
        assert not report.ok
        assert report.problems == [
            "13 rays exceed the bound of 12 for a smooth Fano 4-fold (at most 3d rays, Casagrande 2006)"
        ]


def test_validate_then_record_fan_builds_one_fan(monkeypatch, database):
    from toricfano import atlas

    built = []
    monkeypatch.setattr(atlas, "_last_analysis", None)
    monkeypatch.setattr(atlas, "build_fan", lambda *args: built.append(args) or build_fan(*args))
    h1, p4 = database.lookup("H1"), database.lookup("P4")
    assert validate_record(h1).ok
    fan = atlas.record_fan(h1)
    assert validate_record(h1) is validate_record(h1)
    assert len(built) == 1 and fan.rays == h1.rays
    atlas.record_fan(p4)
    assert len(built) == 2


def test_record_report_caps_its_problems():
    from toricfano.atlas import MAX_PROBLEMS, VarietyRecord

    # each zero ray is a problem, and so is each ray that repeats the first
    report = validate_record(VarietyRecord("zeros", ((0, 0, 0, 0),) * 12))
    assert not report.ok
    assert len(report.problems) == MAX_PROBLEMS + 1
    assert report.problems[:3] == ["ray 1 is zero", "ray 2 is zero", "rays 1 and 2 coincide"]
    assert report.problems[-1] == f"{23 - MAX_PROBLEMS} more problems not shown"
