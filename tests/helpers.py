"""Shared test machinery: the primitive-relation Fano criterion,
functional perturbations, independent divisor-curve and ch2 oracles built
on wall relations only, reference versions of the face table, the face-fan
and the non-face searches, seeded perturbations of collection lists with
the check of the round-trip verdict against the non-face search, a
cofactor 4x4 determinant, the adjugate of
one matrix, the rational null space, the solved dual functional, the anticanonical degree of a
curve, and the errata of the reference table."""

import itertools
from fractions import Fraction
from typing import NamedTuple

from toricfano.chern import divisor_dot_curve
from toricfano.exactlin import _rref, adjugates4, dot, solve
from toricfano.fan import Fan, _cone, are_minimal_nonfaces, build_fan, minimal_nonfaces, primitive_relation


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _drop(row, j):
    return tuple(row[:j]) + tuple(row[j + 1 :])


def det4(rows) -> int:
    """Determinant of a 4x4 integer matrix given as four rows.

    Cofactor expansion along the first row; all intermediate values stay
    integral, so the result is exact for arbitrarily large entries. The
    reference for the determinant that :func:`toricfano.exactlin.adjugates4`
    returns.
    """
    r0, r1, r2, r3 = rows
    total = 0
    sign = 1
    for j in range(4):
        if r0[j] != 0:
            total += sign * r0[j] * _det3(_drop(r1, j), _drop(r2, j), _drop(r3, j))
        sign = -sign
    return total


def adjugate4(cols):
    """``(adj_rows, det)`` of the one 4x4 matrix with columns ``cols``:
    :func:`toricfano.exactlin.adjugates4` on a batch of one."""
    return adjugates4((cols,))[0]


def nullspace(rows) -> list[tuple]:
    """Basis of the solution space of ``A x = 0``.

    One basis vector per free column: the free variable is set to 1, all
    other free variables to 0, and the pivot variables are back-substituted.
    Returns an empty list for a full-rank matrix.
    """
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(m, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def dual_functional(fan, w, cone) -> tuple:
    """Rational functional equal to 1 on ray ``w``, 0 on the cone's others.

    The cone must be a face containing ``w``. For cones of fewer than four
    rays the system is underdetermined and the canonical solution is
    returned (free coordinates zero), deterministic but otherwise arbitrary:
    downstream intersection numbers do not depend on the choice. The
    library's default route takes its functionals from
    :meth:`toricfano.fan.Fan.dual` instead; this one serves the reference
    route (the ``u_fn`` argument of :mod:`toricfano.chern`).
    """
    cone = _cone(cone)
    if w not in cone:
        raise ValueError(f"ray {w} is not a generator of cone {cone}")
    rows = [fan.ray(j) for j in cone]
    rhs = [1 if j == w else 0 for j in cone]
    sol = solve(rows, rhs)
    if sol is None:
        raise RuntimeError(f"generators of {cone} are dependent; fan is corrupt")
    return sol[0]


def anticanonical_degree(fan, tau) -> Fraction:
    """Degree of the anticanonical divisor on the curve of 3-cone ``tau``.

    The anticanonical class is the sum of all invariant divisors, so this is
    the sum of the divisor-curve numbers; positive on every curve of a Fano
    fan.
    """
    tau = _cone(tau)
    return sum(
        (divisor_dot_curve(fan, w, tau) for w in range(1, fan.ray_count + 1)),
        Fraction(0),
    )


def is_fano(fan) -> bool:
    """Whether every primitive relation has positive degree (Batyrev 1999,
    Prop. 2.3.6).

    The relation criterion, kept as an oracle for the curve criterion that
    :func:`toricfano.atlas.validate_record` applies. Expects a fan that
    already validated as smooth and complete; relation errors from
    non-smooth input propagate.
    """
    return all(primitive_relation(fan, p).degree > 0 for p in minimal_nonfaces(fan))


def perturbed_functional(fan, w, cone, rng):
    """The canonical functional plus a random null-space element.

    The null space is {x : <x, v_j> = 0 for every generator v_j}, so any
    perturbed functional still satisfies the defining constraints.
    """
    cone = tuple(sorted(cone))
    base = dual_functional(fan, w, cone)
    basis = nullspace([fan.ray(j) for j in cone])
    if not basis:
        return base
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in basis]
    offset = [sum(c * v[k] for c, v in zip(coeffs, basis)) for k in range(4)]
    perturbed = tuple(x + o for x, o in zip(base, offset))
    return perturbed


def override_at(target_w, target_cone, replacement):
    """A functional provider that swaps in `replacement` at one pair."""
    target_cone = tuple(sorted(target_cone))

    def u_fn(fan, w, cone):
        if w == target_w and tuple(sorted(cone)) == target_cone:
            return replacement
        return dual_functional(fan, w, cone)

    return u_fn


def wall_curve_oracle(fan, w, tau):
    """Independent divisor-curve intersection number via the wall relation.

    A 3-cone tau of a complete simplicial fan lies in exactly two maximal
    cones tau+{a} and tau+{b}. With v_a + v_b = sum_j beta_j v_j over the
    generators of tau, the curve of tau meets D_a and D_b once, D_j in
    -beta_j points for j in tau, and every other divisor not at all. No
    linear-equivalence trick is involved, so this is a genuinely separate
    route to the numbers computed by divisor_dot_curve.
    """
    tau = tuple(sorted(tau))
    adjacent = [
        n
        for n in range(1, fan.ray_count + 1)
        if n not in tau and fan.is_maxcone(tuple(sorted(tau + (n,))))
    ]
    assert len(adjacent) == 2, f"wall {tau} is not shared by exactly two cones"
    a, b = adjacent
    if w == a or w == b:
        return Fraction(1)
    if w not in tau:
        return Fraction(0)
    rows = [[fan.ray(j)[r] for j in tau] for r in range(4)]
    rhs = [fan.ray(a)[r] + fan.ray(b)[r] for r in range(4)]
    sol = solve(rows, rhs)
    assert sol is not None and sol[1] == 3
    beta = dict(zip(tau, sol[0]))
    return Fraction(-beta[w])


def _det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** c * m[0][c] * _det([row[:c] + row[c + 1 :] for row in m[1:]])
        for c in range(len(m))
    )


def _cofactor_duals(fan, mc):
    """Integer dual basis of the unimodular maximal cone ``mc``.

    Maps each generator k of ``mc`` to the functional u_k with
    <u_k, v_j> = 1 if j == k else 0 for j in ``mc``: the k-th column of the
    inverse ray matrix, i.e. a row of cofactors divided by det = +-1.
    """
    m = [list(fan.ray(j)) for j in mc]
    det = _det(m)
    assert det in (1, -1), f"maximal cone {mc} is not unimodular (det {det})"
    duals = {}
    for k, j in enumerate(mc):
        rest = m[:k] + m[k + 1 :]
        duals[j] = tuple(
            (-1) ** (k + i) * _det([row[:i] + row[i + 1 :] for row in rest]) * det
            for i in range(4)
        )
    for k in mc:
        for j in mc:
            assert sum(a * b for a, b in zip(duals[k], fan.ray(j))) == (k == j)
    return duals


def wall_ch2_oracle(fan, sigma):
    """Independent value of ch2 of the tangent bundle on the surface V(sigma).

    ch2 . V(sigma) = 1/2 sum_w D_w^2 . V(sigma). For w outside sigma,
    D_w . V(sigma) is the curve of sigma+{w} when that spans a cone. For w
    in sigma, D_w is moved off V(sigma) with the integer functional u_w dual
    to w on a maximal cone containing sigma, giving
    sum_n -<u_w, v_n> V(sigma+{n}). Each curve is then paired with D_w by
    wall_curve_oracle. Neither step uses the library's functionals or
    divisor intersections.
    """
    sigma = tuple(sorted(sigma))
    mc = next(c for c in fan.maxcones if set(sigma) <= set(c))
    duals = _cofactor_duals(fan, mc)
    curves = {
        n: tuple(sorted(sigma + (n,)))
        for n in range(1, fan.ray_count + 1)
        if n not in sigma and fan.is_face(tuple(sorted(sigma + (n,))))
    }
    total = Fraction(0)
    for w in range(1, fan.ray_count + 1):
        if w in sigma:
            for n, tau in curves.items():
                coeff = -sum(a * b for a, b in zip(duals[w], fan.ray(n)))
                total += coeff * wall_curve_oracle(fan, w, tau)
        elif w in curves:
            total += wall_curve_oracle(fan, w, curves[w])
    return total / 2


def face_table_by_subsets(fan):
    """``(faces, cones2, cones3, walls)`` of ``fan``, one subset at a time.

    The reference for the one-pass construction in
    :class:`toricfano.fan.Fan`: each of the 16 subsets of every maximal
    cone, in sorted order, maps to the first cone that has it; the 2- and
    3-cones are sorted out of the faces; and a second pass over the cones
    gives each wall the ray opposite it in every cone that has it.
    """
    faces = {}
    for mc in fan.maxcones:
        for k in range(5):
            for face in itertools.combinations(mc, k):
                faces.setdefault(face, mc)
    cones2 = tuple(sorted(f for f in faces if len(f) == 2))
    cones3 = tuple(sorted(f for f in faces if len(f) == 3))
    walls = {}
    for a, b, c, d in fan.maxcones:
        for tau, n in (((b, c, d), a), ((a, c, d), b), ((a, b, d), c), ((a, b, c), d)):
            walls[tau] = walls.get(tau, ()) + (n,)
    return faces, cones2, cones3, walls


def face_fan_by_subsets(rays):
    """The face fan of ``rays`` before validation, one 4-subset at a time.

    The reference for :func:`toricfano.fan.build_fan_from_rays`: a 4-subset
    spans a maximal cone when its adjugate has nonzero determinant and the
    sum of its rows, ``det`` times the facet functional, stays strictly below
    ``|det|`` on every other ray.
    """
    maxcones = []
    for mc in itertools.combinations(range(1, len(rays) + 1), 4):
        adj, det = adjugate4([rays[i - 1] for i in mc])
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        scaled = tuple(sign * sum(col) for col in zip(*adj))
        if all(dot(scaled, rays[j - 1]) < abs(det) for j in range(1, len(rays) + 1) if j not in mc):
            maxcones.append(mc)
    return Fan(rays, maxcones)


def brute_force_nonfaces(fan):
    """Every 2- to 5-subset that is not a face while all its facets are;
    the reference for :func:`toricfano.fan.minimal_nonfaces`."""
    found = []
    for size in range(2, 6):
        for sub in itertools.combinations(range(1, fan.ray_count + 1), size):
            if not fan.is_face(sub) and all(fan.is_face(sub[:k] + sub[k + 1 :]) for k in range(size)):
                found.append(sub)
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def perturbed_collections(rng, ray_count, collections, steps):
    """``collections`` after ``steps`` seeded changes, each one of: drop a
    line, add a random line of 2 to 5 rays, enlarge a line of fewer than
    five rays by a ray it lacks, or repeat a line. Every line stays one that
    :func:`toricfano.fan.build_fan` accepts."""
    colls = list(collections)
    indices = range(1, ray_count + 1)
    for _ in range(steps):
        kind = rng.randrange(4)
        if kind == 0 and colls:
            del colls[rng.randrange(len(colls))]
        elif kind == 2 and colls:
            k = rng.randrange(len(colls))
            rest = [i for i in indices if i not in colls[k]]
            if len(colls[k]) < 5 and rest:
                colls[k] = tuple(sorted(colls[k] + (rng.choice(rest),)))
        elif kind == 3 and colls:
            colls.insert(rng.randrange(len(colls) + 1), rng.choice(colls))
        else:
            colls.append(tuple(sorted(rng.sample(indices, rng.randint(2, min(5, ray_count))))))
    return colls


def round_trip_verdicts(samples):
    """The verdicts of :func:`toricfano.fan.are_minimal_nonfaces` on the
    ``(ray_count, collections)`` samples whose fan uses every ray, after
    checking each against the non-face search: the collections are the
    fan's minimal non-faces exactly when the verdict is true. A fan that
    leaves a ray in no maximal cone must get false."""
    seen = set()
    for ray_count, collections in samples:
        fan = build_fan([(i, 0, 0, 0) for i in range(1, ray_count + 1)], collections)
        verdict = are_minimal_nonfaces(ray_count, collections)
        if {i for mc in fan.maxcones for i in mc} == set(range(1, ray_count + 1)):
            assert verdict == (frozenset(minimal_nonfaces(fan)) == frozenset(collections)), (ray_count, collections)
            seen.add(verdict)
        else:
            assert not verdict, (ray_count, collections)
    return seen


class Erratum(NamedTuple):
    """A reference-table row whose printed value is provably wrong.

    ``twin`` is a variety with the same maximal cones whose rays differ from
    this one's only at ``twin_differs_at``, none of which shares a maximal
    cone with the surface; the value on the surface is then term for term
    the twin's, and the twin's printed row carries the corrected value.
    """

    printed: Fraction
    corrected: Fraction
    twin: str
    twin_differs_at: tuple


# Rows of toricfano.atlas.REFERENCE_TABLE, keyed by (variety, surface), that
# misprint their source value. The table itself stays verbatim.
ERRATA = {
    ("H2", (3, 4)): Erratum(Fraction(-1), Fraction(-3, 2), "H1", (5,)),
}
