import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    anticanonical_degree,
    dual_functional,
    override_at,
    perturbed_functional,
    wall_ch2_oracle,
    wall_curve_oracle,
)

import toricfano.chern
import toricfano.fan
from toricfano.atlas import record_fan, validate_record
from toricfano.chern import (
    _classification,
    ch2_dot_surface,
    classify,
    divisor_dot_curve,
    divisor_dot_surface,
)
from toricfano.exactlin import dot
from toricfano.fan import Fan, FanError, build_fan, build_fan_from_rays, validate_fan


@pytest.fixture(scope="module")
def h1(fans):
    return fans["H1"]


@pytest.fixture(scope="module")
def p4(fans):
    return fans["P4"]


def test_dual_functional_canonical_values(h1, p4):
    assert dual_functional(h1, 2, (2, 3, 4)) == (0, 1, 0, 0)
    assert dual_functional(p4, 5, (3, 4, 5)) == (-1, 0, 0, 0)


def test_dual_functional_defining_constraints(h1):
    for cone in [(3,), (3, 4), (2, 3, 4), (3, 4, 6, 7)]:
        for w in cone:
            u = dual_functional(h1, w, cone)
            for j in cone:
                assert dot(u, h1.ray(j)) == (1 if j == w else 0)


def test_fan_dual_defining_constraints(fans):
    for name in ("P4", "H1", "M5", "124"):
        fan = fans[name]
        for cone in fan.cones2 + fan.cones3:
            for w in cone:
                u = fan.dual(w, cone)
                assert all(isinstance(x, int) for x in u)
                for j in cone:
                    assert dot(u, fan.ray(j)) == (1 if j == w else 0)


def test_default_path_never_calls_the_rational_solver(database, monkeypatch):
    def forbidden(*args):
        raise AssertionError("rational solver reached on a unimodular fan")

    monkeypatch.setattr(toricfano.fan, "solve", forbidden)
    two_fano = []
    for rec in database:
        assert validate_record(rec).ok
        report = classify(record_fan(rec))
        if report.classification == "two_fano":
            two_fano.append((rec.name, report.min_value))
    assert build_fan_from_rays(database.lookup("M5").rays).maxcones
    assert two_fano == [("P4", Fraction(5, 2))]


class CountedWrites(list):
    """A store list of ``size`` empty places that counts how often each
    place is written."""

    def __init__(self, size):
        super().__init__([None] * size)
        self.writes = Counter()

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_classify_reads_the_wall_relations_that_validation_cached(database, monkeypatch):
    calls = Counter()
    adjugates4 = toricfano.fan.adjugates4

    def counted(matrices):
        calls["adjugates4"] += len(matrices)
        return adjugates4(matrices)

    fans = []
    for name in ("H1", "M5", "124"):
        rec = database.lookup(name)
        fan = build_fan(rec.rays, rec.collections)
        fan._relations = CountedWrites(len(fan.cones3))
        assert validate_fan(fan).ok
        assert fan._relations.writes == Counter(range(len(fan.cones3)))
        fans.append(fan)
    monkeypatch.setattr(toricfano.fan, "adjugates4", counted)
    for fan in fans:
        assert len(classify(fan).values) == len(fan.cones2)
        assert fan._relations.writes == Counter(range(len(fan.cones3)))
    assert calls == {}


def test_a_single_surface_fills_only_the_stores_around_it(fans):
    # ch2 --surface answers from the walls around sigma, never a full table
    for name in ("H1", "124"):
        fan = fans[name]
        holder = fan.tables.faces
        for sigma in fan.cones2:
            cold = Fan(fan.rays, fan.tables)
            ch2_dot_surface(cold, sigma)
            walls = {tau for tau in fan.cones3 if set(sigma) <= set(tau)}
            filled = {tau for tau, x in zip(fan.cones3, cold._relations) if x is not None}
            assert filled == walls, (name, sigma)
            # each store place belongs to one maximal cone
            filled = {mc for mc, entry in zip(fan.maxcones, cold._bases) if entry is not None}
            assert filled == {holder[tau] for tau in walls} | {holder[sigma]}, (name, sigma)


@pytest.mark.parametrize("validated", [True, False], ids=["validated", "unvalidated"])
def test_each_wall_relation_is_computed_once_per_fan(fans, validated):
    for name in ("P4", "H1", "M5", "117", "124"):
        fan = Fan(fans[name].rays, fans[name].maxcones)
        fan._relations = CountedWrites(len(fan.cones3))
        if validated:
            assert validate_fan(fan).ok
        classify(fan)
        for sigma in fan.cones2:
            ch2_dot_surface(fan, sigma)
        for tau in fan.cones3:
            anticanonical_degree(fan, tau)
        assert fan._relations.writes == Counter(range(len(fan.cones3))), name


def test_dual_functional_requires_membership(h1):
    with pytest.raises(ValueError):
        dual_functional(h1, 5, (2, 3, 4))


def test_divisor_dot_curve_examples(h1, p4):
    assert divisor_dot_curve(p4, 5, (1, 2, 3)) == 1
    assert divisor_dot_curve(h1, 1, (2, 3, 4)) == 0
    # with the canonical u=(0,1,0,0): +1 from ray 6, -1 from ray 8
    assert divisor_dot_curve(h1, 2, (2, 3, 4)) == 0


def test_divisor_dot_surface_examples(h1, p4):
    assert divisor_dot_surface(p4, 4, (1, 2)) == {(1, 2, 4): 1}
    # {3,4,5} spans no cone, so ray 5 misses V(3,4) entirely
    assert divisor_dot_surface(h1, 5, (3, 4)) == {}
    # for w inside the cone every candidate enlargement drops out
    assert divisor_dot_surface(h1, 3, (3, 4)) == {}


def test_divisor_dot_surface_zero_case_everywhere(fans):
    for name in ("H1", "E1", "124"):
        fan = fans[name]
        for sigma in fan.cones2:
            for w in range(1, fan.ray_count + 1):
                if w in sigma:
                    continue
                enlarged = tuple(sorted(sigma + (w,)))
                cycle = divisor_dot_surface(fan, w, sigma)
                if fan.is_face(enlarged):
                    assert cycle == {enlarged: 1}
                else:
                    assert cycle == {}


def test_ch2_values_match_reference_surfaces(h1, fans):
    assert ch2_dot_surface(h1, (3, 4)) == Fraction(-3, 2)
    assert ch2_dot_surface(fans["E1"], (2, 3)) == Fraction(-2)


def test_ch2_p4_hyperplane_oracle(p4):
    # all five invariant divisors are the hyperplane class h, so
    # ch2 = (1/2) * 5 * h^2, and h^2 meets any invariant plane once
    oracle = Fraction(1, 2) * 5 * 1
    for sigma in p4.cones2:
        assert ch2_dot_surface(p4, sigma) == oracle


def test_classify_examples(fans):
    report = classify(fans["P4"])
    assert report.classification == "two_fano"
    assert report.min_value == Fraction(5, 2)
    assert report.witness == (1, 2)

    report = classify(fans["E1"])
    assert report.classification == "not_nef"
    assert report.min_value <= -2

    report = classify(fans["117"])
    assert report.classification == "not_nef"
    assert report.min_value <= -5


def test_classification_boundaries():
    assert _classification(Fraction(1, 2)) == "two_fano"
    assert _classification(Fraction(0)) == "nef_not_two_fano"
    assert _classification(Fraction(-1, 2)) == "not_nef"


def test_anticanonical_degree_examples(h1, p4):
    assert anticanonical_degree(p4, (1, 2, 3)) == 5
    # frozen from summing the eight divisor-curve numbers by hand
    assert anticanonical_degree(h1, (2, 3, 4)) == 2


def test_anticanonical_degree_vanishes_on_degree_zero_relation():
    rays = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 0), (0, 0, 0, 1), (2, 0, 0, -1))
    fan = build_fan(rays, ((1, 2, 3, 4), (5, 6)))
    assert anticanonical_degree(fan, (1, 2, 3)) == 0


def test_fano_consistency_on_shipped_varieties(fans):
    from helpers import is_fano

    for fan in fans.values():
        assert is_fano(fan)
        assert all(anticanonical_degree(fan, tau) > 0 for tau in fan.cones3)


def test_wall_relation_oracle_agrees_everywhere(fans):
    checked = 0
    for fan in fans.values():
        for tau in fan.cones3:
            for w in range(1, fan.ray_count + 1):
                assert wall_curve_oracle(fan, w, tau) == divisor_dot_curve(fan, w, tau)
                checked += 1
    assert checked > 10000


def test_wall_ch2_oracle_agrees_everywhere(fans):
    checked = 0
    for fan in fans.values():
        for sigma in fan.cones2:
            assert wall_ch2_oracle(fan, sigma) == ch2_dot_surface(fan, sigma)
            checked += 1
    assert checked == 1730


def test_divisor_dot_curve_is_integral(fans):
    for fan in fans.values():
        for tau in fan.cones3:
            for w in range(1, fan.ray_count + 1):
                assert divisor_dot_curve(fan, w, tau).denominator == 1


def test_ch2_is_half_integral(fans):
    for fan in fans.values():
        for sigma in fan.cones2:
            assert (2 * ch2_dot_surface(fan, sigma)).denominator == 1


def test_functional_choice_does_not_change_curve_number(h1):
    rng = random.Random(4242)
    tau = (2, 3, 4)
    reference = divisor_dot_curve(h1, 2, tau)
    for _ in range(10):
        u = perturbed_functional(h1, 2, tau, rng)
        assert divisor_dot_curve(h1, 2, tau, u_fn=override_at(2, tau, u)) == reference


def test_functional_choice_does_not_change_surface_value(h1):
    rng = random.Random(99)
    sigma = (3, 4)
    reference = ch2_dot_surface(h1, sigma)
    for w in sigma:
        u = perturbed_functional(h1, w, sigma, rng)
        u_fn = override_at(w, sigma, u)
        # the intermediate cycle may change, the assembled value may not
        assert ch2_dot_surface(h1, sigma, u_fn=u_fn) == reference


def test_ch2_invariant_under_ray_relabeling(fans):
    rng = random.Random(31415)
    for name in ("P4", "H1", "E1", "M5", "R2", "118"):
        fan = fans[name]
        d = fan.ray_count
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        mapping = {i: perm[i - 1] for i in range(1, d + 1)}
        new_rays = [None] * d
        for i in range(1, d + 1):
            new_rays[mapping[i] - 1] = fan.ray(i)
        from toricfano.fan import minimal_nonfaces

        new_colls = [tuple(sorted(mapping[i] for i in c)) for c in minimal_nonfaces(fan)]
        relabeled = build_fan(new_rays, new_colls)
        for sigma in fan.cones2:
            image = tuple(sorted(mapping[i] for i in sigma))
            assert ch2_dot_surface(relabeled, image) == ch2_dot_surface(fan, sigma)


@pytest.fixture(scope="module")
def oracle_values(fans):
    return {name: {sigma: wall_ch2_oracle(fan, sigma) for sigma in fan.cones2} for name, fan in fans.items()}


@pytest.mark.parametrize("validated", [True, False], ids=["validated", "unvalidated"])
def test_classify_sweep_matches_the_single_surface_route_and_the_oracle(fans, oracle_values, validated):
    # an unvalidated fan has no cached wall relations; the sweep computes them
    checked = 0
    for name, fan in fans.items():
        fresh = Fan(fan.rays, fan.maxcones)
        if validated:
            assert validate_fan(fresh).ok
        else:
            assert fresh._relations == [None] * len(fresh.cones3)
        values = classify(fresh).values
        assert list(values) == list(fan.cones2)
        for sigma, value in values.items():
            assert value == ch2_dot_surface(fan, sigma) == oracle_values[name][sigma], (name, sigma)
            checked += 1
    assert checked == 1730


P4_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1))


def test_classify_sweep_reads_rational_wall_relations():
    # P(1,1,1,1,2): rational duals on the cone of determinant -2
    fan = build_fan(P4_RAYS[:4] + ((-1, -1, -1, -2),), ((1, 2, 3, 4, 5),))
    values = classify(Fan(fan.rays, fan.maxcones)).values
    assert values == {sigma: ch2_dot_surface(Fan(fan.rays, fan.maxcones), sigma) for sigma in fan.cones2}


DEGENERATE_RAYS = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (-1, -1, -1, -1))


@pytest.mark.parametrize(
    ("fan", "message"),
    [
        # P4 without the cone (1, 2, 3, 4): the walls of the hole lie in one maximal cone
        (
            Fan(P4_RAYS, build_fan(P4_RAYS, ((1, 2, 3, 4, 5),)).maxcones[1:]),
            r"^wall \(1, 2, 3\) lies in 1 maximal cone\(s\)$",
        ),
        # v3 = v1 + v2
        (build_fan(DEGENERATE_RAYS, ((1, 2, 3, 4, 5),)), r"^cone \(1, 2, 3, 4\) is degenerate$"),
    ],
    ids=["incomplete", "degenerate"],
)
def test_classify_refuses_a_wall_without_a_relation(fan, message):
    computations = (
        classify,
        lambda fan: ch2_dot_surface(fan, (1, 2)),
        lambda fan: divisor_dot_curve(fan, 5, (1, 2, 3)),
    )
    for compute in computations:
        with pytest.raises(FanError, match=message):
            compute(Fan(fan.rays, fan.maxcones))


def test_ch2_of_a_non_face_names_it(h1):
    # {1, 6} is a primitive collection of H1
    with pytest.raises(FanError, match=r"^\(1, 6\) is not a cone of the fan$"):
        ch2_dot_surface(h1, (1, 6))


def test_classify_on_a_validated_fan_reads_no_link_and_no_single_surface_sum(fans, monkeypatch):
    # the walls around one surface are read only by the single-surface sum
    calls = Counter()
    wall_sum = toricfano.chern._wall_sum

    def counted(*args):
        calls["_wall_sum"] += 1
        return wall_sum(*args)

    validated, unvalidated = [], []
    for fan in fans.values():
        validated.append(Fan(fan.rays, fan.maxcones))
        assert validate_fan(validated[-1]).ok
        unvalidated.append(Fan(fan.rays, fan.maxcones))
    monkeypatch.setattr(toricfano.chern, "_wall_sum", counted)
    for fan in validated + unvalidated:
        classify(fan)
    assert calls == {}


def test_the_sweep_tables_are_built_once_per_table_set_and_only_by_classify(database, monkeypatch):
    from toricfano.atlas import analyse_each
    from toricfano.fan import FanTables

    built = Counter()
    build = FanTables._build_sweep

    def counted(tables):
        built[tables] += 1
        return build(tables)

    monkeypatch.setattr(FanTables, "_build_sweep", counted)
    for rec in database:
        fan = build_fan(rec.rays, rec.collections)
        assert validate_fan(fan).ok
        for sigma in fan.cones2:
            ch2_dot_surface(fan, sigma)
        assert fan.tables._sweep is None, rec.name
    assert not built
    # the records of a type share one table set, swept once for all of them
    table_sets = {}
    for _, analysis in analyse_each(database.records):
        assert analysis.report.ok
        classify(analysis.fan)
        table_sets[analysis.fan.tables] = len(table_sets)
    assert built == Counter(dict.fromkeys(table_sets, 1)) and len(table_sets) == 17
