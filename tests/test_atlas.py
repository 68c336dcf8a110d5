from fractions import Fraction

import pytest

from toricfano.atlas import (
    REFERENCE_TABLE,
    AtlasParseError,
    VarietyRecord,
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


def _integer_contexts(literal):
    """Atlas texts that put ``literal(n)``, a spelling of the integer n, in
    each integer context, with the parse error each must give."""
    rays = "1 0 0 0\n0 1 0 0\n"
    one, two = literal(1), literal(2)
    return [
        (f"variety X\nrays {one}\n1 0 0 0\nend\n", f"line 2: non-integer token in ray count of X: {one}"),
        (f"variety X\nrays 1\n1 0 0 {one}\nend\n", f"line 3: non-integer token in ray of X: 1 0 0 {one}"),
        (
            f"variety X\nrays 2\n{rays}collections {one}\n1 2\nend\n",
            f"line 5: non-integer token in collection count of X: {one}",
        ),
        (
            f"variety X\nrays 2\n{rays}collections 1\n1 {two}\nend\n",
            f"line 6: non-integer token in collection of X: 1 {two}",
        ),
    ]


def test_parse_rejects_a_plus_sign():
    for text, message in _integer_contexts(lambda n: f"+{n}"):
        assert _parse_error(text) == message


def test_parse_rejects_underscores_in_integers():
    for text, message in _integer_contexts(lambda n: f"0_{n}"):
        assert _parse_error(text) == message
    # read as ten rays, "rays 1_0" used to end in an end-of-input error
    assert _parse_error("variety X\nrays 1_0\n") == "line 2: non-integer token in ray count of X: 1_0"


def test_parse_rejects_non_ascii_digits():
    # ARABIC-INDIC DIGIT n, which int() reads as n
    for text, message in _integer_contexts(lambda n: chr(0x660 + n)):
        assert _parse_error(text) == message
    assert _parse_error("variety X\nrays 1\n0 0 0 ٣\nend\n") == "line 3: non-integer token in ray of X: 0 0 0 ٣"


def test_parse_keeps_negative_integers_and_free_form_names():
    text = "# comment with + and _ and ٣\nvariety a_b+ç\nrays 2\n-1 0 0 0\n0 -10 0 0\ncollections 1\n1 2\nend\n"
    (rec,) = parse(text)
    assert rec.name == "a_b+ç"
    assert rec.rays == ((-1, 0, 0, 0), (0, -10, 0, 0))
    assert rec.collections == ((1, 2),)
    assert parse("variety x_1\nrays 1\n0 0 0 -1\nend\n").lookup("x_1").rays == ((0, 0, 0, -1),)


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


def _parse_error(text):
    with pytest.raises(AtlasParseError) as exc:
        parse(text)
    return str(exc.value)


def test_parse_errors_quote_at_most_80_characters_of_the_input():
    long = "x" * 50_000
    line = f"bogus {long}"
    assert _parse_error(line + "\n") == f"line 1: expected 'variety <name>', got: {line[:80]}..."
    # a huge non-integer token in a ray line
    ray = f"1 0 0 {'7' * 50_000}q"
    assert _parse_error(f"variety X\nrays 1\n{ray}\nend\n") == f"line 3: non-integer token in ray of X: {ray[:80]}..."
    # a long name is rejected at its own line, quoting only a prefix
    assert _parse_error(f"variety {long}\nrays 0\n") == f"line 1: variety name longer than 64 characters: {long[:64]}..."
    assert _parse_error(f"variety {long}\nvariety {long}\n") == (
        f"line 1: variety name longer than 64 characters: {long[:64]}..."
    )
    indices = " ".join(map(str, range(1, 20_001)))
    text = f"variety X\nrays 1\n1 0 0 0\ncollections 1\n{indices}\nend\n"
    assert _parse_error(text) == f"line 5: X: collection index outside 1..1: {str(tuple(range(1, 20_001)))[:80]}..."
    huge = "9" * 4_000
    assert _parse_error(f"variety X\nrays {huge}\nend\n") == f"line 3: X: expected {huge[:80]}... ray lines, found 0"


def test_parse_caps_the_name_length():
    from toricfano.atlas import MAX_NAME

    record = "rays 1\n1 0 0 0\nend\n"
    name = "n" * MAX_NAME
    assert parse(f"variety {name}\n{record}").names() == (name,)
    message = _parse_error(f"variety {name}x\n{record}")
    assert message == f"line 1: variety name longer than {MAX_NAME} characters: {name}..."
    # a long line after a valid name is still cut
    long = "x" * 50_000
    assert _parse_error(f"variety X\nvariety {long}\n") == (
        f"line 2: X: expected 'rays <d>', got: variety {long[:72]}..."
    )


def test_parse_rejects_negative_collection_count():
    text = "variety X\nrays 1\n1 0 0 0\ncollections -3\nend\n"
    assert _parse_error(text) == "line 4: X: collection count must not be negative"
    # an empty section is still accepted
    assert parse(text.replace("-3", "0")).lookup("X").collections == ()


@pytest.mark.parametrize(
    "text, message",
    [
        ("variety X\nrays 0\nend\n", "line 2: X: ray count must be positive"),
        (
            "variety X\nrays 1\n1 0 0 0\n",
            "line 3: unexpected end of input while reading 'collections' or 'end' of X",
        ),
        ("variety X\nrays 1\n1 0 0 0\ncollections\nend\n", "line 4: X: expected 'collections <m>'"),
        (
            "variety X\nrays 2\n1 0 0 0\n0 1 0 0\ncollections 2\n1 2\nend\n",
            "line 7: X: expected 2 collection lines, found 1",
        ),
        (
            "variety X\nrays 2\n1 0 0 0\n0 1 0 0\ncollections 2\n1 2\n",
            "line 6: unexpected end of input while reading collection 2 of X",
        ),
        (
            "variety X\nrays 2\n1 0 0 0\n0 1 0 0\ncollections 1\n1 2\n",
            "line 6: unexpected end of input while reading 'end' of X",
        ),
        ("variety X\nrays 1\n1 0 0 0\nbogus\n", "line 4: X: expected 'end', got: bogus"),
    ],
    ids=[
        "no-rays",
        "eof-after-rays",
        "bare-collections",
        "short-collections",
        "eof-in-collections",
        "eof-before-end",
        "no-end",
    ],
)
def test_parse_errors_name_the_line_and_what_was_expected(text, message):
    assert _parse_error(text) == message


def test_parse_errors_quote_short_input_whole():
    line = "bogus " + "x" * 74  # 80 characters: not cut
    assert _parse_error(line + "\n") == f"line 1: expected 'variety <name>', got: {line}"
    assert _parse_error("variety X\nrays 1\n1 0 0 q\nend\n") == "line 3: non-integer token in ray of X: 1 0 0 q"
    record = "variety X\nrays 1\n1 0 0 0\nend\n"
    assert _parse_error(record + record) == "line 5: duplicate variety name 'X'"


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


def test_reference_table_is_one_table_of_fractions():
    import toricfano
    from toricfano import atlas

    assert toricfano.REFERENCE_TABLE is atlas.REFERENCE_TABLE is REFERENCE_TABLE
    # built once, then a plain module attribute
    assert vars(atlas)["REFERENCE_TABLE"] is REFERENCE_TABLE
    assert len(REFERENCE_TABLE) == 66
    for name, surface, value in REFERENCE_TABLE:
        assert type(value) is Fraction and value <= 0
        assert len(surface) == 2 and isinstance(name, str)
    rows = {name: (surface, value) for name, surface, value in REFERENCE_TABLE}
    assert rows["E2"] == ((2, 3), Fraction(-3, 2))
    assert rows["H2"] == ((3, 4), Fraction(-1))  # the misprint, kept as printed
    assert rows["124"] == ((1, 7), Fraction(-4))
    for module in (toricfano, atlas):
        with pytest.raises(AttributeError, match="no attribute 'NO_SUCH_TABLE'"):
            getattr(module, "NO_SUCH_TABLE")


def test_variety_record_keeps_its_fields_defaults_replace_and_repr():
    rec = VarietyRecord("X", ((1, 0, 0, 0),))
    assert VarietyRecord._fields == ("name", "rays", "collections", "collections_derived")
    assert VarietyRecord._field_defaults == {"collections": None, "collections_derived": False}
    assert rec == ("X", ((1, 0, 0, 0),), None, False)
    assert repr(rec) == "VarietyRecord(name='X', rays=((1, 0, 0, 0),), collections=None, collections_derived=False)"
    derived = rec._replace(collections=((1,),), collections_derived=True)
    assert type(derived) is VarietyRecord
    assert (derived.name, derived.collections, derived.collections_derived) == ("X", ((1,),), True)
    assert rec.collections is None
    with pytest.raises(AttributeError):
        rec.extra = 1


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
    h1 = database.lookup("H1")
    colls = tuple(c for c in h1.collections if c != (3, 4, 5))
    report = validate_record(h1._replace(collections=colls))
    assert not report.ok
    assert not report.round_trip


def test_validate_record_catches_redundant_collection(database):
    h1 = database.lookup("H1")
    report = validate_record(h1._replace(collections=h1.collections + ((1, 2, 8),)))
    # the fan itself is unchanged, only the declaration fails to round-trip
    assert report.smooth and report.complete and report.fano
    assert not report.round_trip
    assert not report.ok


def test_validate_record_catches_non_unimodular_cone(database):
    p4 = database.lookup("P4")
    rays = p4.rays[:4] + ((-2, -1, -1, -1),)
    report = validate_record(p4._replace(rays=rays))
    assert not report.smooth
    assert not report.ok


def test_validate_record_catches_malformed_rays(database):
    p4 = database.lookup("P4")
    report = validate_record(p4._replace(rays=p4.rays[:4] + ((-2, -2, -2, -2),)))
    assert not report.ok
    assert any("not primitive" in p for p in report.problems)
    report = validate_record(p4._replace(rays=p4.rays[:4] + ((0, -2, 0, 2),)))
    assert report.problems == ["ray 5 is not primitive"]

    report = validate_record(p4._replace(rays=p4.rays[:4] + (p4.rays[0],)))
    assert not report.ok
    assert any("coincide" in p for p in report.problems)

    report = validate_record(p4._replace(rays=p4.rays[:4] + ((0, 0, 0, 0),)))
    assert not report.ok
    assert any("zero" in p for p in report.problems)


def test_validate_record_catches_unused_ray(database):
    p4 = database.lookup("P4")
    rays = p4.rays + ((1, 1, 0, 0),)
    colls = ((1, 2, 3, 4, 5), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6))
    report = validate_record(p4._replace(rays=rays, collections=colls))
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
    atlas.analyse.cache_clear()
    monkeypatch.setattr(atlas, "build_fan", lambda *args: built.append(args) or build_fan(*args))
    h1, p4 = database.lookup("H1"), database.lookup("P4")
    assert validate_record(h1).ok
    fan = atlas.record_fan(h1)
    assert validate_record(h1) is validate_record(h1)
    assert len(built) == 1 and fan.rays == h1.rays
    atlas.record_fan(p4)
    assert len(built) == 2


def _flags(report):
    return report.smooth, report.complete, report.round_trip, report.fano, report.problems


def test_fans_on_shared_tables_equal_fresh_fans(database):
    from toricfano import atlas
    from toricfano.fan import minimal_nonfaces

    tables = {}  # holding each table set keeps its id unique
    for i, analysis in atlas.analyse_each(database.records):
        rec = database.records[i]
        shared = analysis.fan
        tables[id(shared.tables)] = shared.tables
        fresh = build_fan(rec.rays, rec.collections)
        assert shared is not fresh and shared.rays == fresh.rays
        assert shared.maxcones == fresh.maxcones, rec.name
        assert shared.tables.faces == fresh.tables.faces, rec.name
        assert list(shared.walls.items()) == list(fresh.walls.items()), rec.name
        assert (shared.cones2, shared.cones3) == (fresh.cones2, fresh.cones3), rec.name
        assert minimal_nonfaces(shared) == minimal_nonfaces(fresh), rec.name
        for mc in fresh.maxcones:
            assert shared.cone_basis(mc) == fresh.cone_basis(mc), (rec.name, mc)
        for tau in fresh.cones3:
            assert shared.wall_relation(tau) == fresh.wall_relation(tau), (rec.name, tau)
    # one table set per (ray count, collections)
    assert len(tables) == len({(len(rec.rays), rec.collections) for rec in database}) == 17


def _degenerate(rec):
    """``rec`` with one ray replaced by the sum of two others of a maximal
    cone, primitive and new, so that cone is degenerate."""
    rays = list(rec.rays)
    for mc in build_fan(rec.rays, rec.collections).maxcones:
        i, j, k = mc[:3]
        ray = tuple(a + b for a, b in zip(rays[j - 1], rays[k - 1]))
        if ray not in rays:
            rays[i - 1] = ray
            return rec._replace(name=rec.name + "_degenerate", rays=tuple(rays))
    raise AssertionError(f"no degenerate variant of {rec.name}")


def test_shared_tables_leave_every_ray_check_in_place(database):
    from toricfano import atlas
    from toricfano.atlas import VarietyAnalysis

    g1, g2 = database.lookup("G1"), database.lookup("G2")
    assert (len(g1.rays), g1.collections) == (len(g2.rays), g2.collections)
    bad = _degenerate(g1)
    zero = g1._replace(name="G1_zero", rays=((0, 0, 0, 0),) + g1.rays[1:])
    swapped = g2._replace(name="G2_swapped", rays=(g2.rays[1], g2.rays[0]) + g2.rays[2:])
    for order in ((bad, g2), (g2, bad), (g1, zero, g2), (swapped, g1, bad, g2, swapped)):
        previous = None
        seen = []
        for i, analysis in atlas.analyse_each(order):
            rec = order[i]
            seen.append(i)
            if previous is not None and previous.tables is not None:
                assert analysis.tables is previous.tables
            assert _flags(analysis.report) == _flags(VarietyAnalysis(rec).report), rec.name
            previous = analysis
        # one type, so the records come in input order
        assert seen == list(range(len(order)))
    atlas.analyse.cache_clear()
    problems = atlas.analyse(bad).report.problems
    assert any(p.endswith("is degenerate") for p in problems), problems
    assert atlas.analyse(g2).report.ok


def test_records_without_collections_share_no_tables(database):
    from toricfano import atlas

    p4 = database.lookup("P4")
    bare = p4._replace(name="P4_bare", collections=None)
    records = (p4, bare, p4._replace(name="P4_again"), bare._replace(name="P4_bare_again"))
    analyses = [None] * len(records)
    for i, analysis in atlas.analyse_each(records):
        assert analysis.report.ok
        analyses[i] = analysis
    # the bare records are one type, on the face-fan path, and take no tables
    assert analyses[1].tables is None and analyses[3].tables is None
    assert analyses[2].tables is analyses[0].tables is not None
    # analyse shares no tables at all
    atlas.analyse.cache_clear()
    built = atlas.record_fan(p4)
    again = atlas.analyse(p4._replace(name="P4_again"))
    assert again.tables is None and again.fan.tables is not built.tables


def test_record_report_caps_its_problems():
    from toricfano.atlas import MAX_PROBLEMS, VarietyRecord

    # each zero ray is a problem, and so is each ray that repeats the first
    report = validate_record(VarietyRecord("zeros", ((0, 0, 0, 0),) * 12))
    assert not report.ok
    assert len(report.problems) == MAX_PROBLEMS + 1
    assert report.problems[:3] == ["ray 1 is zero", "ray 2 is zero", "rays 1 and 2 coincide"]
    assert report.problems[-1] == f"{23 - MAX_PROBLEMS} more problems not shown"


def _unimodular(rng):
    """A small-entry integer matrix of determinant +-1: transvections, then
    a signed row shuffle."""
    m = [[int(r == c) for c in range(4)] for r in range(4)]
    for _ in range(4):
        i, j = rng.sample(range(4), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    rng.shuffle(m)
    signs = [rng.choice((-1, 1)) for _ in m]
    return [[s * x for x in row] for row, s in zip(m, signs)]


def _lattice_image(rec, rng, keep_collections):
    """``rec`` under a random GL4(Z) map, with its rays relabelled."""
    g = _unimodular(rng)
    perm = list(range(1, len(rec.rays) + 1))
    rng.shuffle(perm)
    rays = [None] * len(rec.rays)
    for old, ray in enumerate(rec.rays):
        rays[perm[old] - 1] = tuple(sum(g[r][c] * ray[c] for c in range(4)) for r in range(4))
    collections = None
    if keep_collections:
        collections = tuple(sorted(tuple(sorted(perm[i - 1] for i in c)) for c in rec.collections))
    return rec._replace(name=f"g_{rec.name}", rays=tuple(rays), collections=collections, collections_derived=False)


def _bundle(sixth_ray):
    from test_fan import BUNDLE_COLLECTIONS, BUNDLE_RAYS

    from toricfano.atlas import VarietyRecord

    return VarietyRecord("bundle", BUNDLE_RAYS[:5] + (sixth_ray,), BUNDLE_COLLECTIONS)


def test_the_curve_criterion_agrees_with_the_relation_criterion(database):
    import random

    from helpers import is_fano

    from toricfano.atlas import record_fan

    def verdicts(rec):
        report = validate_record(rec)
        assert report.smooth and report.complete and report.round_trip, (rec.name, report.problems)
        return report.fano, is_fano(record_fan(rec))

    rng = random.Random(14)
    for rec in database:
        assert verdicts(rec) == (True, True), rec.name
        for keep_collections in (True, False):
            assert verdicts(_lattice_image(rec, rng, keep_collections)) == (True, True), rec.name

    # P(O + O + O + O(2)) and P(O + O + O + O(3)) over P1: smooth and
    # complete, and the relation v5 + v6 = k v1 has degree 2 - k
    for sixth_ray, degree in (((2, 0, 0, -1), 0), ((3, 0, 0, -1), -1)):
        rec = _bundle(sixth_ray)
        assert verdicts(rec) == (False, False), sixth_ray
        assert validate_record(rec).problems == [f"anticanonical degree {degree} on the curve of wall (1, 2, 3)"]


def test_fans_on_shared_tables_hold_the_parsed_rays_as_they_are(database):
    from toricfano import atlas

    # the first fan of a type is built from its collections; the rest take
    # the record's rays, which parse made integer tuples, without converting them
    first = set()
    for i, analysis in atlas.analyse_each(database.records):
        rec = database.records[i]
        shared = analysis.tables is not None
        fan = analysis.fan
        assert fan.rays == rec.rays and all(type(v) is tuple for v in fan.rays), rec.name
        if shared:
            assert fan.rays is rec.rays, rec.name
        else:
            first.add(rec.name)
    assert len(first) == 17
