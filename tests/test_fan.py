import itertools
import random
from fractions import Fraction

import pytest
from helpers import (
    brute_force_nonfaces,
    face_fan_by_subsets,
    face_table_by_subsets,
    is_fano,
    perturbed_collections,
    wall_curve_oracle,
)

from toricfano import fan as fan_module
from toricfano.exactlin import adjugates4, dot, solve
from toricfano.fan import (
    Fan,
    FanError,
    FanReport,
    _cone,
    build_fan,
    build_fan_from_rays,
    cap_problems,
    containing_cones,
    lattice_equivalent,
    lattice_key,
    minimal_nonfaces,
    primitive_relation,
    reconstruct_rays,
    validate_fan,
)

H1_RAYS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (2, 0, -1, -1),
    (-1, -1, 0, 0),
    (0, -1, 0, 0),
    (1, 1, 0, 0),
)
H1_COLLECTIONS = ((1, 2), (7, 8), (1, 6), (2, 7), (6, 8), (3, 4, 5))

P4_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1))

# P(O + O + O + O(2)) over P1, with v5 + v6 = 2 v1: smooth, complete,
# one relation of degree zero, so Fano fails
BUNDLE_RAYS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (-1, -1, -1, 0),
    (0, 0, 0, 1),
    (2, 0, 0, -1),
)
BUNDLE_COLLECTIONS = ((1, 2, 3, 4), (5, 6))


@pytest.fixture(scope="module")
def h1():
    return build_fan(H1_RAYS, H1_COLLECTIONS)


@pytest.fixture(scope="module")
def p4():
    return build_fan(P4_RAYS, ((1, 2, 3, 4, 5),))


def test_build_fan_keeps_collection_free_subsets(h1):
    assert h1.is_maxcone((3, 4, 6, 7))
    assert not h1.is_maxcone((1, 3, 4, 6))  # contains the collection {1,6}


def test_build_fan_p4_has_all_five_facets(p4):
    assert p4.maxcones == tuple(itertools.combinations(range(1, 6), 4))


def test_build_fan_matches_brute_force_count(h1):
    # independent filter over all C(8,4)=70 subsets
    colls = [set(c) for c in H1_COLLECTIONS]
    expected = [
        s
        for s in itertools.combinations(range(1, 9), 4)
        if not any(c <= set(s) for c in colls)
    ]
    assert len(expected) == 15
    assert h1.maxcones == tuple(expected)


def _brute_force_maxcones(ray_count, collections, sigma=()):
    colls = [set(c) for c in collections]
    subsets = itertools.combinations(range(1, ray_count + 1), 4)
    return tuple(s for s in subsets if set(sigma) <= set(s) and not any(c <= set(s) for c in colls))


def test_build_fan_matches_brute_force_on_every_record(database):
    for rec in database:
        fan = build_fan(rec.rays, rec.collections)
        assert fan.maxcones == _brute_force_maxcones(len(rec.rays), rec.collections), rec.name


def test_build_fan_matches_brute_force_on_random_collections():
    # the rays play no part in which subsets are kept
    rng = random.Random(6)
    for k in range(80):
        ray_count = rng.randint(4, 16)
        indices = range(1, ray_count + 1)
        collections = [
            tuple(sorted(rng.sample(indices, rng.randint(2, min(5, ray_count)))))
            for _ in range(0 if k % 10 == 0 else rng.randint(1, 8))
        ]
        fan = build_fan([(i, 0, 0, 0) for i in indices], collections)
        assert fan.maxcones == _brute_force_maxcones(ray_count, collections), collections
        # the star of a sigma of 0 to 4 rays; one that repeats a ray or has one
        # outside 1..n is in no 4-subset
        sigma = tuple(sorted(rng.sample(indices, rng.randint(0, 4))))
        expected = list(_brute_force_maxcones(ray_count, collections, sigma))
        assert fan_module._free_subsets(ray_count, collections, sigma) == expected, (collections, sigma)
        if sigma:
            for bad in (sigma + sigma[:1], sigma[1:] + (0,), sigma[1:] + (ray_count + 1,)):
                assert fan_module._free_subsets(ray_count, collections, tuple(sorted(bad))) == [], (collections, bad)


def test_build_fan_rejects_bad_collections():
    with pytest.raises(FanError):
        build_fan(P4_RAYS, ((1, 9),))
    with pytest.raises(FanError):
        build_fan(P4_RAYS, ((1, 1, 2),))
    with pytest.raises(FanError, match=r"^collection \(1,\) must have between 2 and 5 members$"):
        build_fan(P4_RAYS, ((1,),))


def test_primitive_relation_names_a_sum_that_no_cone_contains():
    # v1 + v2 + v3 + v4 = -v5 lies inside only the missing cone (1, 2, 3, 4)
    fan = Fan(P4_RAYS, [mc for mc in itertools.combinations(range(1, 6), 4) if mc != (1, 2, 3, 4)])
    with pytest.raises(FanError, match=r"^no containing cone for the ray sum of \(1, 2, 3, 4\)$"):
        primitive_relation(fan, (1, 2, 3, 4))


def test_primitive_relation_refuses_what_build_fan_refuses(p4):
    # index 0 would read the last ray, and index 6 lies past it
    with pytest.raises(FanError, match=r"^collection \(0, 1\) has indices outside 1\.\.5$"):
        primitive_relation(p4, (0, 1))
    with pytest.raises(FanError, match=r"^collection \(1, 6\) has indices outside 1\.\.5$"):
        primitive_relation(p4, (1, 6))
    with pytest.raises(FanError, match=r"^collection \(1, 1, 2\) has duplicate entries$"):
        primitive_relation(p4, (1, 1, 2))
    with pytest.raises(FanError, match=r"^collection \(1,\) must have between 2 and 5 members$"):
        primitive_relation(p4, (1,))


def test_minimal_nonfaces_round_trip(h1, p4):
    assert set(minimal_nonfaces(h1)) == set(H1_COLLECTIONS)
    assert minimal_nonfaces(p4) == ((1, 2, 3, 4, 5),)


def test_minimal_nonfaces_on_largest_record(database):
    rec = database.lookup("117")
    fan = build_fan(rec.rays, rec.collections)
    assert len(rec.collections) == 25
    assert set(minimal_nonfaces(fan)) == set(rec.collections)


def test_primitive_relation_examples(h1, p4):
    rel = primitive_relation(h1, (3, 4, 5))
    assert (rel.sigma, rel.coeffs, rel.degree) == ((1,), {1: 2}, 1)

    rel = primitive_relation(h1, (2, 7))
    assert (rel.sigma, rel.coeffs, rel.degree) == ((), {}, 2)

    rel = primitive_relation(p4, (1, 2, 3, 4, 5))
    assert (rel.sigma, rel.coeffs, rel.degree) == ((), {}, 5)


def test_primitive_relation_identity_holds(h1, p4):
    for fan in (h1, p4):
        for coll in minimal_nonfaces(fan):
            rel = primitive_relation(fan, coll)
            for c in range(4):
                lhs = sum(fan.ray(i)[c] for i in coll)
                rhs = sum(k * fan.ray(j)[c] for j, k in rel.coeffs.items())
                assert lhs == rhs


def test_fan_needs_its_cones_or_shared_tables(p4):
    shared = Fan(p4.rays, p4.tables)
    assert shared.tables is p4.tables
    assert shared.maxcones == p4.maxcones
    with pytest.raises(TypeError):
        Fan(p4.rays)


def test_validate_fan_accepts_good_fans(h1, p4):
    for fan in (h1, p4):
        report = validate_fan(fan)
        assert report.ok
        assert report.problems == []


def test_validate_fan_flags_orphan_walls(p4):
    broken = Fan(p4.rays, p4.maxcones[:-1])
    report = validate_fan(broken)
    assert report.smooth
    assert not report.complete
    assert any("wall" in msg for msg in report.problems)


def test_validate_fan_flags_non_unimodular_cone():
    rays = P4_RAYS[:4] + ((-2, -1, -1, -1),)
    report = validate_fan(build_fan(rays, ((1, 2, 3, 4, 5),)))
    assert report.simplicial_ok
    assert not report.smooth
    assert any("determinant" in msg for msg in report.problems)


# weighted projective space P(1,1,1,1,2): complete and simplicial, but the
# cone (1, 2, 3, 5) has determinant -2
WP_RAYS = P4_RAYS[:4] + ((-1, -1, -1, -2),)


def test_non_unimodular_cone_keeps_its_checks():
    fan = build_fan(WP_RAYS, ((1, 2, 3, 4, 5),))
    report = validate_fan(fan)
    assert (report.complete, report.smooth, report.simplicial_ok) == (True, False, True)
    assert report.problems == ["cone (1, 2, 3, 5) has determinant -2"]
    duals, det = fan.cone_basis((1, 2, 3, 5))
    assert det == -2
    assert duals[3] == (0, 0, 0, Fraction(-1, 2))
    for k, u in zip((1, 2, 3, 5), duals):
        for j in (1, 2, 3, 5):
            assert dot(u, fan.ray(j)) == (1 if j == k else 0)
    with pytest.raises(FanError, match="non-integral coefficients"):
        primitive_relation(fan, (1, 2, 3, 4, 5))
    # the integer facet test of the face fan still finds all five cones
    with pytest.raises(FanError, match=r"^not a Fano face fan: cone \(1, 2, 3, 5\) has determinant -2$"):
        build_fan_from_rays(WP_RAYS)


def test_cone_basis_refuses_a_cone_that_is_not_maximal(h1):
    fan = Fan(h1.rays, h1.tables)
    for mc in fan.maxcones[1:]:
        fan.cone_basis(mc)
    # (1, 2, 3, 4) contains the primitive collection {1, 2} of H1
    with pytest.raises(FanError, match=r"^\(1, 2, 3, 4\) is not a maximal cone of the fan$"):
        fan.cone_basis((1, 2, 3, 4))
    # the store stays one of maximal cones: the refused cone has no place in
    # it, and the first read filled every place, which later reads return
    assert None not in fan._bases and len(fan._bases) == len(fan.maxcones)
    assert fan.cone_bases() is fan._bases
    assert validate_fan(fan).ok


# v3 = v1 + v2, so the cones (1, 2, 3, 4) and (1, 2, 3, 5) are degenerate
DEGENERATE_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (-1, -1, -1, -1))


def test_degenerate_cone_is_reported_not_divided_by():
    fan = build_fan(DEGENERATE_RAYS, ((1, 2, 3, 4, 5),))
    report = validate_fan(fan)
    # the side and point checks never ran, so completeness is not proved
    assert (report.simplicial_ok, report.complete) == (False, False)
    assert report.problems == ["cone (1, 2, 3, 4) is degenerate", "cone (1, 2, 3, 5) is degenerate"]
    for degenerate in (lambda: fan.cone_basis((1, 2, 3, 4)), lambda: fan.dual(1, (1, 2, 3))):
        with pytest.raises(FanError, match=r"^cone \(1, 2, 3, 4\) is degenerate$"):
            degenerate()
    with pytest.raises(FanError, match=r"^cone \(1, 2, 3, 4\) is degenerate$"):
        primitive_relation(fan, (1, 2, 3, 4, 5))
    assert not lattice_equivalent(fan, fan)


def test_dual_refuses_a_ray_outside_the_cone(p4):
    # (1, 2, 3, 4) holds both cones: it has no ray 5, and it has ray 4,
    # which (1, 2, 3) does not
    with pytest.raises(FanError, match=r"^ray 5 is not in \(1, 2\)$"):
        p4.dual(5, (1, 2))
    with pytest.raises(FanError, match=r"^ray 4 is not in \(1, 2, 3\)$"):
        p4.dual(4, (1, 2, 3))
    assert p4.dual(1, (1, 2)) == (1, 0, 0, 0)


def test_is_fano(h1, p4):
    assert is_fano(h1)
    assert is_fano(p4)
    degrees = {c: primitive_relation(h1, c).degree for c in minimal_nonfaces(h1)}
    assert degrees == {
        (1, 2): 1,
        (1, 6): 1,
        (2, 7): 2,
        (6, 8): 2,
        (7, 8): 1,
        (3, 4, 5): 1,
    }


def test_degree_zero_relation_is_not_fano():
    fan = build_fan(BUNDLE_RAYS, BUNDLE_COLLECTIONS)
    assert validate_fan(fan).ok
    rel = primitive_relation(fan, (5, 6))
    assert (rel.sigma, rel.coeffs, rel.degree) == ((1,), {1: 2}, 0)
    assert not is_fano(fan)


def test_every_fan_holds_its_rays_as_integer_tuples(h1):
    # the builders pass the rays on as given, and the fan converts them once
    lists = [list(v) for v in H1_RAYS]
    for fan in (Fan(lists, h1.maxcones), build_fan(lists, H1_COLLECTIONS), build_fan_from_rays(lists)):
        assert fan == h1 and type(fan.rays) is tuple
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in fan.rays)


def test_a_fan_equals_only_fans_and_shows_its_size(h1):
    assert (h1 == 1) is False
    assert repr(h1) == "Fan(8 rays, 15 maximal cones)"


def test_face_fan_construction_agrees(h1, p4, database):
    assert build_fan_from_rays(P4_RAYS) == p4
    assert build_fan_from_rays(H1_RAYS) == h1
    rec = database.lookup("E1")
    assert build_fan_from_rays(rec.rays) == build_fan(rec.rays, rec.collections)


def test_face_fan_derives_m5_combinatorics(database):
    rec = database.lookup("M5")
    fan = build_fan_from_rays(rec.rays)
    assert validate_fan(fan).ok
    colls = minimal_nonfaces(fan)
    assert set(colls) == set(rec.collections)
    # v1 + v8 = v5, so {1,8} must be one of the derived collections
    rel = primitive_relation(fan, (1, 8))
    assert (rel.sigma, rel.coeffs, rel.degree) == ((5,), {5: 1}, 1)


def test_face_fan_rejects_non_interior_origin():
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1))
    with pytest.raises(FanError, match="not a Fano face fan"):
        build_fan_from_rays(rays)


def test_face_fan_needs_other_rays_strictly_below_the_facet():
    # every facet of the 4-cube holds 8 vertices, so no 4-subset qualifies
    rays = tuple(itertools.product((1, -1), repeat=4))
    with pytest.raises(FanError, match="^not a Fano face fan: fan has no maximal cones$"):
        build_fan_from_rays(rays)


def _random_ray_sets(rng, count):
    # 5 to 12 rays with entries in -3..3, some with a zero ray, a repeated
    # ray, or a ray in the plane of two others
    for _ in range(count):
        n = rng.randint(5, 12)
        rays = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 1:
            rays[rng.randrange(n)] = (0, 0, 0, 0)
        elif kind == 2:
            rays[rng.randrange(n)] = rays[rng.randrange(n)]
        elif kind == 3:
            i, j, k = rng.sample(range(n), 3)
            rays[k] = tuple(x + y for x, y in zip(rays[i], rays[j]))
        yield tuple(rays)


def test_face_fan_search_matches_the_per_subset_adjugate_rule(database, monkeypatch):
    rng = random.Random(9)
    samples = [tuple(itertools.product((1, -1), repeat=4)), *_random_ray_sets(rng, 300)]
    for rec in database:
        rays = list(rec.rays)
        rng.shuffle(rays)
        samples.append(tuple(rays))
        rays[rng.randrange(len(rays))] = tuple(rng.randint(-2, 2) for _ in range(4))
        samples.append(tuple(rays))
    searched = []
    monkeypatch.setattr(fan_module, "validate_fan", lambda fan: searched.append(fan) or validate_fan(fan))
    accepted = 0
    for rays in samples:
        expected = face_fan_by_subsets(rays)
        report = validate_fan(expected)
        try:
            fan = build_fan_from_rays(rays)
        except FanError as exc:
            assert str(exc) == "not a Fano face fan: " + "; ".join(cap_problems(report.problems)), rays
        else:
            assert report.ok and fan == expected, rays
            accepted += 1
        assert searched[-1] == expected, rays
    assert 67 <= accepted < len(samples)


def test_cone_bases_call_the_adjugate_and_the_face_fan_search_does_not(database, monkeypatch):
    batches = []
    monkeypatch.setattr(fan_module, "adjugates4", lambda matrices: batches.append(matrices) or adjugates4(matrices))
    rays = database.lookup("124").rays
    fan = build_fan_from_rays(rays)
    # validation reads one cone basis per maximal cone, in one batch, and
    # the 4-subsets none
    assert len(batches) == 1
    assert len(batches[0]) == len(fan.maxcones) < len(list(itertools.combinations(rays, 4)))
    assert batches[0] == [tuple(fan.ray(i) for i in mc) for mc in fan.maxcones]


H1_RELATIONS = (
    ((1, 2), {8: 1}),
    ((7, 8), {1: 1}),
    ((1, 6), {7: 1}),
    ((2, 7), {}),
    ((6, 8), {}),
    ((3, 4, 5), {1: 2}),
)


def test_reconstruct_rays_p4():
    rays = reconstruct_rays([((1, 2, 3, 4, 5), {})], 5)
    assert rays == P4_RAYS


def test_reconstruct_rays_h1_representative(h1):
    rays = reconstruct_rays(H1_RELATIONS, 8)
    # seeded from the cone {1,3,4,7}; deterministic representative
    assert rays == (
        (1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (2, -1, -1, 0),
        (-1, 0, 0, 1),
        (0, 0, 0, 1),
        (1, 0, 0, -1),
    )
    rebuilt = build_fan(rays, [coll for coll, _ in H1_RELATIONS])
    assert lattice_equivalent(rebuilt, h1)


def test_reconstruct_rays_underdetermined():
    with pytest.raises(FanError, match="underdetermined"):
        reconstruct_rays(H1_RELATIONS[:5], 8)


def test_reconstruct_rays_inconsistent():
    relations = list(H1_RELATIONS)
    relations[3] = ((2, 7), {1: 1})  # v2 + v7 = v1 contradicts the rest
    with pytest.raises(FanError, match="inconsistent"):
        reconstruct_rays(relations, 8)


@pytest.mark.parametrize(
    "relations, ray_count, message",
    [
        ([((1, 2, 3, 4, 5), {6: 1})], 5, "relation index 6 outside 1..5"),
        # every 4-subset of five rays contains {1, 2} or {3, 4}
        ([((1, 2), {}), ((3, 4), {}), ((1, 3), {})], 5, "underdetermined: no 4-subset is free of the collections"),
        ([], 5, "underdetermined: no relations given"),
        # read as 2 v1 + v2 + ... + v5 = 0, it would solve
        ([((1, 1, 2, 3, 4, 5), {})], 5, "relation of collection (1, 1, 2, 3, 4, 5) has duplicate entries"),
        # read as 2 v5 = -(v1 + v2 + v3 + v4), it would solve to a half
        (
            [((1, 2, 3, 4, 5), {5: -1})],
            5,
            "relation of collection (1, 2, 3, 4, 5) has coefficient -1 on ray 5, not positive",
        ),
        ([((1, 2, 3, 4, 5), {5: 0})], 5, "relation of collection (1, 2, 3, 4, 5) has coefficient 0 on ray 5, not positive"),
        # the seed (1, 3, 4, 5) is the standard basis: v2 = 2 e2 - e1, and 2 v6 = v2 + v3 = 3 e2 - e1
        ([((1, 2), {3: 2}), ((2, 3), {6: 2})], 6, "inconsistent: ray 6 has non-integral coordinate -1/2"),
    ],
    ids=["index", "no-free-subset", "no-relations", "duplicate", "negative", "zero", "non-integral"],
)
def test_reconstruct_rays_names_what_it_cannot_reconstruct(relations, ray_count, message):
    with pytest.raises(FanError) as exc:
        reconstruct_rays(relations, ray_count)
    assert str(exc.value) == message


def test_reconstruct_rays_round_trips_from_computed_relations(database, fans):
    rec = database.lookup("E1")
    fan = fans["E1"]
    relations = [primitive_relation(fan, c) for c in rec.collections]
    rays = reconstruct_rays(relations, len(rec.rays))
    assert lattice_equivalent(build_fan(rays, rec.collections), fan)


def test_reconstruct_rays_caps_the_problems_it_names(monkeypatch):
    problems = [f"problem {k}" for k in range(15)]
    monkeypatch.setattr(fan_module, "validate_fan", lambda fan: FanReport(False, False, True, list(problems)))
    with pytest.raises(FanError) as exc:
        reconstruct_rays([((1, 2, 3, 4, 5), {})], 5)
    shown = problems[:10] + ["5 more problems not shown"]
    assert str(exc.value) == "reconstructed rays are invalid: " + "; ".join(shown)


def test_lattice_equivalent_reflexive_and_transform_invariant(h1):
    assert lattice_equivalent(h1, h1)
    # act by an integral matrix of determinant 1
    m = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1))
    moved = tuple(
        tuple(sum(m[r][c] * v[c] for c in range(4)) for r in range(4)) for v in H1_RAYS
    )
    assert lattice_equivalent(build_fan(moved, H1_COLLECTIONS), h1)


def test_lattice_equivalent_separates_different_varieties(fans):
    assert not lattice_equivalent(fans["H1"], fans["H4"])
    assert not lattice_equivalent(fans["P4"], fans["E1"])
    # the atlas lists each variety once, so no two records share a key
    assert len({lattice_key(fan) for fan in fans.values()}) == len(fans) == 67


def test_lattice_equivalent_tells_fans_on_the_same_rays_apart(h1):
    # H1's maximal cones relabelled by each transposition of two rays, on
    # H1's rays; (3 4), (3 5) and (4 5) give H1's cones back and are left out
    moved = []
    for i, j in itertools.combinations(range(1, 9), 2):
        swap = {i: j, j: i}
        cones = sorted(_cone(swap.get(k, k) for k in mc) for mc in h1.maxcones)
        if tuple(cones) != h1.maxcones:
            moved.append(Fan(h1.rays, cones))
    assert len(moved) == 25
    assert not any(lattice_equivalent(fan, h1) for fan in moved)
    # those with a key have H1's sorted rays in it: the cones tell them apart
    keyed = []
    for fan in moved:
        try:
            keyed.append(lattice_key(fan))
        except FanError:
            continue
    assert keyed and all(key[0] == lattice_key(h1)[0] for key in keyed)


def test_lattice_equivalent_skips_cones_that_are_not_unimodular():
    # the cone (1, 2, 3, 5) has determinant -2; the other four are unimodular
    fan = build_fan(WP_RAYS, ((1, 2, 3, 4, 5),))
    assert lattice_equivalent(fan, fan)


def test_lattice_key_is_the_key_of_the_fan_it_describes(fans):
    for name, fan in fans.items():
        key = lattice_key(fan)
        assert lattice_key(Fan(*key)) == key, name


def test_ray_refuses_an_index_outside_the_fan(p4):
    assert p4.ray(1) == P4_RAYS[0] and p4.ray(5) == P4_RAYS[4]
    for i in (0, -1, 6):
        with pytest.raises(FanError, match=rf"^ray index {i} outside 1\.\.5$"):
            p4.ray(i)


def test_minimal_nonfaces_equals_brute_force(database, fans):
    samples = dict(fans)
    samples["P(1,1,1,1,2)"] = build_fan(WP_RAYS, ((1, 2, 3, 4, 5),))
    # the face fans of the shipped ray sets, on tables of their own
    samples.update((rec.name + " (face fan)", build_fan_from_rays(rec.rays)) for rec in database)
    assert len(samples) == 2 * len(database) + 1 == 135
    for name, fan in samples.items():
        assert minimal_nonfaces(fan) == brute_force_nonfaces(fan), name


def _random_collection_fans(seed):
    """80 seeded ``(collections, fan)`` pairs of 5 to 12 rays, and whether
    some fan leaves a ray in no maximal cone."""
    rng = random.Random(seed)
    samples = []
    for _ in range(80):
        ray_count = rng.randint(5, 12)
        indices = range(1, ray_count + 1)
        collections = [tuple(sorted(rng.sample(indices, rng.randint(2, 5)))) for _ in range(rng.randint(0, 10))]
        if rng.random() < 0.3:
            # a pair with every other ray leaves this ray in no maximal cone
            r = rng.choice(indices)
            collections += [tuple(sorted((r, i))) for i in indices if i != r]
        samples.append((collections, build_fan([(i, 0, 0, 0) for i in indices], collections)))
    unused = any(not fan.is_face((i,)) for _, fan in samples for i in range(1, fan.ray_count + 1))
    return samples, unused


def _perturbed_types(database, seed, per_type):
    """``per_type`` seeded ``(ray_count, collections)`` samples for each
    combinatorial type of the bundled atlas, each after 0 to 3 changes of
    :func:`perturbed_collections`."""
    rng = random.Random(seed)
    types = dict.fromkeys((len(rec.rays), rec.collections) for rec in database)
    return [
        (ray_count, perturbed_collections(rng, ray_count, collections, rng.randint(0, 3)))
        for ray_count, collections in types
        for _ in range(per_type)
    ]


def _round_trip_outcomes(samples):
    """Whether the declared collections equal the derived minimal non-faces,
    over the ``(ray_count, collections)`` samples, after checking each
    derivation against brute force."""
    seen = set()
    for ray_count, collections in samples:
        fan = build_fan([(i, 0, 0, 0) for i in range(1, ray_count + 1)], collections)
        derived = minimal_nonfaces(fan)
        assert derived == brute_force_nonfaces(fan), (ray_count, collections)
        seen.add(frozenset(derived) == frozenset(collections))
    return seen


def test_minimal_nonfaces_equals_brute_force_on_random_collections(database):
    samples, unused = _random_collection_fans(10)
    assert unused
    # the derivation matches brute force on the samples, on seeded
    # perturbations of every bundled type, on P4 with a sixth ray paired with
    # every other, which lies in no cone, and on a free pair {1, 2} in no
    # cone, every triple and 5-subset around it holding a collection; the
    # collections round-trip in some cases and not in others
    cases = [(fan.ray_count, collections) for collections, fan in samples]
    cases += _perturbed_types(database, 22, 20)
    hand = [
        (6, [(1, 2, 3, 4, 5)] + [(j, 6) for j in range(1, 6)]),
        (6, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (3, 4, 5, 6)]),
    ]
    assert _round_trip_outcomes(cases) == {True, False}
    assert _round_trip_outcomes(hand) == {False}


@pytest.mark.slow
def test_minimal_nonfaces_equals_brute_force_on_a_sweep(database):
    # 20 000 seeded collection sets on 5 to 12 rays: perturbed bundled types,
    # and random lists with their perturbations
    rng = random.Random(2211)
    samples = _perturbed_types(database, 2212, 600)
    while len(samples) < 20_000:
        ray_count = rng.randint(5, 12)
        samples.append((ray_count, perturbed_collections(rng, ray_count, (), rng.randint(1, 12))))
    assert _round_trip_outcomes(samples) == {True, False}


def test_curve_numbers_match_the_wall_oracle(fans):
    for name, fan in fans.items():
        for tau in fan.cones3:
            numbers = fan.curve_numbers(tau)
            assert len(fan.walls[tau]) == 2 and set(numbers) == set(tau + fan.walls[tau]), (name, tau)
            for w in range(1, fan.ray_count + 1):
                assert numbers.get(w, 0) == wall_curve_oracle(fan, w, tau), (name, tau, w)


def test_wall_relation_expresses_the_far_neighbour_over_the_near_cone(fans):
    for name, fan in fans.items():
        for tau in fan.cones3:
            a, b = fan.walls[tau]
            x = fan.wall_relation(tau)
            assert set(x) == set(tau + (a,)), (name, tau)
            assert tuple(sum(c * fan.ray(k)[i] for k, c in x.items()) for i in range(4)) == fan.ray(b)
            assert x[a] < 0, (name, tau)  # the two cones lie on opposite sides


def test_curve_numbers_need_a_nondegenerate_wall():
    fan = build_fan(DEGENERATE_RAYS, ((1, 2, 3, 4, 5),))
    with pytest.raises(FanError, match=r"^cone \(1, 2, 3, 4\) is degenerate$"):
        fan.curve_numbers((1, 2, 3))  # its maximal cone is degenerate
    p4 = build_fan(P4_RAYS, ((1, 2, 3, 4, 5),))
    with pytest.raises(FanError, match=r"^\(1, 2\) is not a 3-dimensional cone of the fan$"):
        p4.curve_numbers((1, 2))
    # every invariant curve of P4 is a line, meeting each hyperplane once
    assert p4.curve_numbers((1, 2, 3)) == dict.fromkeys(range(1, 6), 1)
    assert p4.walls[1, 2, 3] == (4, 5)
    # without the cone (2, 3, 4, 5) the wall (2, 3, 4) lies in one maximal cone
    with pytest.raises(FanError, match=r"^wall \(2, 3, 4\) lies in 1 maximal cone\(s\)$"):
        Fan(p4.rays, p4.maxcones[:-1]).curve_numbers((2, 3, 4))


def test_primitive_relation_describe(h1, p4):
    assert primitive_relation(p4, (1, 2, 3, 4, 5)).describe() == (
        "{1, 2, 3, 4, 5}: v1 + v2 + v3 + v4 + v5 = 0  degree 5"
    )
    assert primitive_relation(h1, (2, 7)).describe() == "{2, 7}: v2 + v7 = 0  degree 2"
    assert primitive_relation(h1, (3, 4, 5)).describe() == "{3, 4, 5}: v3 + v4 + v5 = 2*v1  degree 1"


def test_ambiguous_minimal_cone_names_plain_coefficients():
    # H1 with v1 and v7 swapped: v3 + v4 + v5 lies in two overlapping cones
    rays = list(H1_RAYS)
    rays[0], rays[6] = rays[6], rays[0]
    with pytest.raises(FanError) as exc:
        primitive_relation(build_fan(rays, H1_COLLECTIONS), (3, 4, 5))
    message = str(exc.value)
    assert message == (
        "ambiguous minimal cone for (3, 4, 5): (1, 8) with coefficients 2, 2; (7,) with coefficients 2"
    )
    assert "Fraction(" not in message


def _swap_maps_collections_onto_themselves(collections, i, j):
    swap = {i: j, j: i}
    return {tuple(sorted(swap.get(k, k) for k in c)) for c in collections} == set(collections)


def test_validate_fan_accepts_exactly_the_swaps_that_preserve_the_collections(database):
    # swapping two rays keeps the cones, so the result is a fan exactly when
    # the transposition is a symmetry of the collection set
    swaps = 0
    for rec in database:
        if rec.collections_derived:
            continue
        for i, j in itertools.combinations(range(1, len(rec.rays) + 1), 2):
            rays = list(rec.rays)
            rays[i - 1], rays[j - 1] = rays[j - 1], rays[i - 1]
            report = validate_fan(build_fan(rays, rec.collections))
            expected = _swap_maps_collections_onto_themselves(rec.collections, i, j)
            assert report.ok == expected, (rec.name, i, j, report.problems)
            swaps += 1
    assert swaps == 2037


# a pentagram times the fan of P2: the five plane cones between consecutive
# points of the pentagram wind twice around the origin, so every wall pairs
# up with its two cones on opposite sides and only the point check fails
PENTAGRAM_RAYS = (
    (1, 0, 0, 0),
    (-4, 3, 0, 0),
    (1, -3, 0, 0),
    (1, 3, 0, 0),
    (-4, -3, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (0, 0, -1, -1),
)
PENTAGRAM_CONES = tuple(
    plane + line
    for plane in ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
    for line in ((6, 7), (6, 8), (7, 8))
)


def test_validate_fan_catches_cones_that_cover_twice():
    fan = Fan(PENTAGRAM_RAYS, PENTAGRAM_CONES)
    assert all(len(fan.walls[wall]) == 2 for wall in fan.cones3)
    report = validate_fan(fan)
    assert (report.complete, report.simplicial_ok) == (False, True)
    assert [p for p in report.problems if "determinant" not in p] == [
        "cones (1, 2, 6, 7) and (4, 5, 6, 7) overlap"
    ]


def test_validate_fan_names_a_wall_with_both_cones_on_one_side(p4):
    # v1 moved to the other side of the wall (2, 3, 4) shared with v5's cone
    rays = ((-1, 0, 0, 0),) + P4_RAYS[1:4] + ((-1, -1, -1, -1),)
    report = validate_fan(Fan(rays, p4.maxcones))
    assert report.smooth and not report.complete
    assert "cones (1, 2, 3, 4) and (2, 3, 4, 5) lie on one side of wall (2, 3, 4)" in report.problems


def _solver_containing_cones(fan, points):
    """For each point, every ``(mc, x)`` with x the rational solver's solution
    of sum_k x_k v_k = point over the generators of ``mc`` and all x_k >= 0.

    Every coordinate is computed, from the solver's inverse of each cone
    (four solves per cone, not per point).
    """
    units = [tuple(int(r == c) for c in range(4)) for r in range(4)]
    inverses = {}
    for mc in fan.maxcones:
        m = [[fan.ray(i)[r] for i in mc] for r in range(4)]
        sols = [solve(m, e) for e in units]
        assert all(s is not None and s[1] == 4 for s in sols), mc
        inverses[mc] = [tuple(int(v) if v.denominator == 1 else v for v in s[0]) for s in sols]
    found = []
    for point in points:
        cones = []
        for mc, cols in inverses.items():
            x = tuple(sum(p * col[k] for p, col in zip(point, cols)) for k in range(4))
            if min(x) >= 0:
                cones.append((mc, x))
        found.append(cones)
    return found


def test_containing_cones_matches_the_rational_solver(fans):
    rng = random.Random(7)
    test_fans = dict(fans)
    test_fans["P(1,1,1,1,2)"] = build_fan(WP_RAYS, ((1, 2, 3, 4, 5),))
    test_fans["pentagram"] = Fan(PENTAGRAM_RAYS, PENTAGRAM_CONES)
    shared = unique = 0
    for name, fan in test_fans.items():
        # relation sums, the ray sums of all nonempty cones, random points
        sums = list(minimal_nonfaces(fan)) + [c for c in fan._container if c]
        points = [tuple(map(sum, zip(*(fan.ray(i) for i in c)))) for c in sums]
        points += [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(20)]
        for point, expected in zip(points, _solver_containing_cones(fan, points)):
            assert list(containing_cones(fan, point)) == expected, (name, point)
            shared += len(expected) > 1
            unique += len(expected) == 1
    # points on a common face of several cones, and points inside one
    assert shared > 1000 and unique > 1000
    # a degenerate maximal cone has no coordinates to give
    degenerate = build_fan(DEGENERATE_RAYS, ((1, 2, 3, 4, 5),))
    with pytest.raises(FanError, match=r"^cone \(1, 2, 3, 4\) is degenerate$"):
        next(containing_cones(degenerate, (1, 1, 1, 1)))


def _brute_force_walls(fan):
    """Each 3-cone with every ray n, ascending, such that 3-cone + n is a maximal cone."""
    return {
        tau: tuple(n for n in range(1, fan.ray_count + 1) if n not in tau and fan.is_maxcone(tau + (n,)))
        for tau in fan.cones3
    }


def test_wall_table_matches_a_brute_force_scan(fans, p4):
    samples = dict(fans)
    samples["pentagram"] = Fan(PENTAGRAM_RAYS, PENTAGRAM_CONES)
    samples["P4 minus a cone"] = Fan(p4.rays, p4.maxcones[:-1])
    for name, fan in samples.items():
        assert fan.walls == _brute_force_walls(fan), name
    assert samples["P4 minus a cone"].walls[2, 3, 4] == (1,)


def test_face_table_matches_the_per_subset_construction(fans, p4):
    samples = dict(fans)
    samples["pentagram"] = Fan(PENTAGRAM_RAYS, PENTAGRAM_CONES)
    samples["P4 minus a cone"] = Fan(p4.rays, p4.maxcones[:-1])
    samples["degenerate"] = build_fan(DEGENERATE_RAYS, ((1, 2, 3, 4, 5),))
    random_fans, unused = _random_collection_fans(12)
    assert unused
    samples.update((f"random {k}: {collections}", fan) for k, (collections, fan) in enumerate(random_fans))
    for name, fan in samples.items():
        faces, cones2, cones3, walls = face_table_by_subsets(fan)
        # the same faces, each held by the same maximal cone
        assert fan._container == faces, name
        assert (fan.cones2, fan.cones3) == (cones2, cones3), name
        # the same walls and neighbours, in the same order: classify sweeps them in it
        assert list(fan.walls.items()) == list(walls.items()), name


def test_position_tables_locate_each_holder_and_neighbour(fans, p4):
    samples = dict(fans)
    samples["pentagram"] = Fan(PENTAGRAM_RAYS, PENTAGRAM_CONES)
    samples["P4 minus a cone"] = Fan(p4.rays, p4.maxcones[:-1])
    random_fans, _ = _random_collection_fans(12)
    samples.update((f"random {k}: {collections}", fan) for k, (collections, fan) in enumerate(random_fans))
    for name, fan in samples.items():
        tables = fan.tables
        assert [tables.maxindex[mc] for mc in fan.maxcones] == list(range(len(fan.maxcones))), name
        assert [tables.wall_at[tau] for tau in fan.cones3] == list(range(len(fan.cones3))), name
        assert tables.wall_links == [fan.walls[tau] for tau in fan.cones3], name
        for tau, (h, k) in zip(fan.cones3, tables.wall_rows):
            holder = fan.maxcones[h]
            # the holder is the wall plus its near neighbour, opposite the wall at k
            assert holder == fan._container[tau] == _cone(tau + fan.walls[tau][:1]), (name, tau)
            assert holder[k] == fan.walls[tau][0] and holder[:k] + holder[k + 1 :] == tau, (name, tau)


def test_sweep_tables_list_each_wall_and_surface_pair_once(fans):
    for name, fan in fans.items():
        inside, outside, surface_rows = fan.tables.sweep()
        for sigma, (h, i, j) in zip(fan.cones2, surface_rows):
            holder = fan.maxcones[h]
            assert holder == fan._container[sigma] and (holder[i], holder[j]) == sigma, (name, sigma)
        pairs = []
        for entry in inside + outside:
            s, t, kn = entry[:3] if len(entry) == 3 else (entry[0], entry[1], entry[3])
            sigma, tau = fan.cones2[s], fan.cones3[t]
            (n,) = set(tau) - set(sigma)
            holder = fan.maxcones[fan.tables.wall_rows[t][0]]
            assert holder[kn] == n, (name, tau, sigma)
            # inside exactly when n lies in the holder of sigma
            assert (len(entry) == 3) == (n in fan._container[sigma]), (name, tau, sigma)
            if len(entry) == 6:
                assert entry[2] == n - 1 and (holder[entry[4]], holder[entry[5]]) == sigma, (name, tau, sigma)
            pairs.append((tau, sigma))
        expected = [(tau, sigma) for tau in fan.cones3 for sigma in itertools.combinations(tau, 2)]
        assert sorted(pairs) == sorted(expected), name


def test_a_fan_on_shared_tables_converts_the_rays_it_is_given(h1):
    lists = [[float(x) for x in v] for v in H1_RAYS]
    fan = Fan(lists, h1.tables)
    assert fan.tables is h1.tables and fan == h1 and type(fan.rays) is tuple
    assert all(type(v) is tuple and all(type(x) is int for x in v) for v in fan.rays)
