"""Simplicial complete fans in a rank-4 lattice, described combinatorially.

A fan is stored as its ray generators (primitive integer 4-vectors, indexed
from 1) together with its maximal cones, each a set of four ray indices.
Lower-dimensional cones are the subsets of maximal cones.

A *primitive collection* is a minimal set of rays that does not span a cone:
the set is not contained in any cone of the fan, but every proper subset is.
Conversely the fan is recovered from its primitive collections by the rule
that a 4-subset of rays spans a maximal cone exactly when it contains no
primitive collection. The *primitive relation* of a collection P expresses
the sum of its rays over the unique minimal cone containing that sum,

    sum of v_i for i in P  =  c_1 v_{j_1} + ... + c_k v_{j_k},   c_j > 0,

with integral c_j on a smooth fan, and has degree |P| - (c_1 + ... + c_k).
A smooth complete fan is Fano exactly when every primitive relation has
positive degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .exactlin import adjugate4, dot, solve

LatticePoint = tuple[int, int, int, int]
Cone = tuple[int, ...]

DIM = 4

# A list of problems shows at most this many, then how many it hides.
MAX_PROBLEMS = 10


class FanError(ValueError):
    """Input data does not describe a valid smooth complete fan."""


def _cone(indices: Iterable[int]) -> Cone:
    return tuple(sorted(indices))


class Fan:
    """An indexed ray list plus the set of maximal cones.

    Instances are built by :func:`build_fan` or :func:`build_fan_from_rays`
    and treated as immutable afterwards; the faces and the 2- and
    3-dimensional cones are precomputed so lookups are cheap. Each face is
    held by one maximal cone (the first in sorted order), whose dual basis,
    computed on first use, serves every functional on that face. The wall
    table (:attr:`walls`) and one coordinate vector per wall
    (:meth:`wall_relation`) are built on first use too; validation, curve
    numbers and ch2 all read them. The first point-containment test
    (:func:`containing_cones`) gathers the dual bases of all maximal cones
    into one table.

    The intersection methods raise :class:`FanError` naming the cone on a
    degenerate maximal cone, a wall outside exactly two maximal cones, or a
    cone that is not a face; :func:`validate_fan` reports these instead.
    """

    def __init__(self, rays: Sequence[LatticePoint], maxcones: Iterable[Cone]):
        self.rays: tuple[LatticePoint, ...] = tuple(tuple(int(x) for x in v) for v in rays)
        self.maxcones: tuple[Cone, ...] = tuple(sorted(_cone(mc) for mc in maxcones))
        self._maxset = frozenset(self.maxcones)
        container: dict[Cone, Cone] = {}
        for mc in self.maxcones:
            for k in range(DIM + 1):
                for face in itertools.combinations(mc, k):
                    container.setdefault(face, mc)
        self._container = container
        self.cones3: tuple[Cone, ...] = tuple(sorted(f for f in container if len(f) == 3))
        self.cones2: tuple[Cone, ...] = tuple(sorted(f for f in container if len(f) == 2))
        self._bases: dict[Cone, tuple] = {}
        self._relations: dict[Cone, dict] = {}

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> LatticePoint:
        """Generator of ray ``i`` (1-based, matching the printed tables)."""
        return self.rays[i - 1]

    def is_face(self, indices: Iterable[int]) -> bool:
        return _cone(indices) in self._container

    def is_maxcone(self, indices: Iterable[int]) -> bool:
        return _cone(indices) in self._maxset

    def cone_basis(self, mc: Cone) -> tuple:
        """``(duals, det)`` for the maximal cone ``mc``, cached per fan.

        ``det`` is the determinant of the generators in index order and
        ``duals[k]`` the functional equal to 1 on generator ``mc[k]`` and 0
        on the others: the adjugate row divided by ``det``, so integers when
        ``det`` is +-1 and ``Fraction`` otherwise. This is the one place that
        detects a degenerate cone (``det`` 0): it raises :class:`FanError`
        naming the cone.
        """
        entry = self._bases.get(mc)
        if entry is None:
            adj, det = adjugate4([self.rays[i - 1] for i in mc])
            if det == 0:
                raise FanError(f"cone {mc} is degenerate")
            if det == 1:
                duals = adj
            elif det == -1:
                duals = tuple(tuple(-x for x in row) for row in adj)
            else:
                duals = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
            entry = self._bases[mc] = (duals, det)
        return entry

    @cached_property
    def _cone_duals(self) -> tuple[tuple[Cone, tuple], ...]:
        # (mc, duals) for every maximal cone in order, built on first use,
        # never by __init__; the table behind containing_cones
        return tuple((mc, self.cone_basis(mc)[0]) for mc in self.maxcones)

    @cached_property
    def walls(self) -> dict[Cone, tuple[int, ...]]:
        """The wall table: each 3-cone ``tau`` maps to the rays ``n``, in
        ascending order, with ``tau + n`` a maximal cone.

        Built on first use in one pass over the maximal cones; their sorted
        order puts the rays of each entry in ascending order. On a complete
        fan every entry has two rays; :func:`validate_fan` checks this.
        """
        walls: dict[Cone, tuple[int, ...]] = {}
        for a, b, c, d in self.maxcones:
            for tau, n in (((b, c, d), a), ((a, c, d), b), ((a, b, d), c), ((a, b, c), d)):
                walls[tau] = walls.get(tau, ()) + (n,)
        return walls

    def dual(self, w: int, cone: Cone):
        """A functional equal to 1 on ray ``w`` and 0 on the rest of ``cone``.

        ``cone`` is a sorted face containing ``w``; the functional is the dual
        basis element of ``w`` on the maximal cone holding that face. Raises
        :class:`FanError` when ``cone`` is not a face or that maximal cone is
        degenerate.
        """
        mc = self._container.get(cone)
        if mc is None:
            raise FanError(f"{cone} is not a cone of the fan")
        return self.cone_basis(mc)[0][mc.index(w)]

    def wall_relation(self, tau: Cone) -> dict:
        """The wall relation of the sorted 3-cone ``tau``, as coordinates.

        With neighbours a < b in :attr:`walls`, ``tau + a`` is the maximal
        cone holding ``tau`` (at the first place where the two sorted cones
        differ, one has a and the other a larger ray). The result maps each
        ray k of ``tau + a`` to the coordinate x_k in ``v_b = sum_k x_k v_k``.
        The cones lie on opposite sides of ``tau`` exactly when x_a < 0, and
        x_w for w in ``tau`` gives the curve numbers (:meth:`curve_numbers`).
        Computed once per wall. Raises :class:`FanError` when ``tau`` is not
        a 3-cone of the fan, lies in other than two maximal cones, or
        ``tau + a`` is degenerate.
        """
        x = self._relations.get(tau)
        if x is None:
            link = self.walls.get(tau)
            if link is None:
                raise FanError(f"{tau} is not a 3-dimensional cone of the fan")
            if len(link) != 2:
                raise FanError(f"wall {tau} lies in {len(link)} maximal cone(s)")
            mc = self._container[tau]
            v0, v1, v2, v3 = self.rays[link[1] - 1]
            x = self._relations[tau] = {
                k: u[0] * v0 + u[1] * v1 + u[2] * v2 + u[3] * v3 for k, u in zip(mc, self.cone_basis(mc)[0])
            }
        return x

    def curve_numbers(self, tau: Cone) -> dict:
        """Intersection numbers of the invariant divisors with the curve of wall ``tau``.

        ``tau`` is a sorted 3-cone with neighbours a < b. The result maps ray
        index to number: 1 on a and b, and ``-x_w`` on each w in ``tau``,
        where x is :meth:`wall_relation`, so ``v_a + v_b = sum_w -x_w v_w``
        is the wall relation; every other divisor misses the curve. This is
        the number ``-<u_w, v_a + v_b>`` with ``u_w`` the dual of w on
        ``tau + a``, because ``<u_w, v_a> = 0`` on that cone. Raises as
        :meth:`wall_relation` does.
        """
        x = self.wall_relation(tau)
        numbers = dict.fromkeys(self.walls[tau], 1)
        numbers.update((w, -x[w]) for w in tau)
        return numbers

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fan):
            return NotImplemented
        return self.rays == other.rays and self.maxcones == other.maxcones

    def __repr__(self) -> str:
        return f"Fan({self.ray_count} rays, {len(self.maxcones)} maximal cones)"


@dataclass
class PrimitiveRelation:
    """The unique positive expression of ``sum(collection)`` over a cone.

    ``coeffs`` maps generator index to its positive integer coefficient; the
    generator cone is empty when the rays of the collection sum to zero.
    ``degree`` is ``len(collection) - sum(coeffs.values())``.
    """

    collection: Cone
    sigma: Cone
    coeffs: dict[int, int]
    degree: int

    def describe(self) -> str:
        """The relation as ``toricfano show`` prints it, e.g.
        ``{1, 6}: v1 + v6 = v7  degree 1``."""
        members = ", ".join(str(i) for i in self.collection)
        lhs = " + ".join(f"v{i}" for i in self.collection)
        rhs = " + ".join(f"{c}*v{j}" if c != 1 else f"v{j}" for j, c in sorted(self.coeffs.items()))
        return f"{{{members}}}: {lhs} = {rhs or '0'}  degree {self.degree}"


@dataclass
class FanReport:
    """Validation outcome, with one message per failed condition."""

    smooth: bool
    complete: bool
    simplicial_ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.smooth and self.complete and self.simplicial_ok


def cap_problems(problems: list[str]) -> list[str]:
    """The first :data:`MAX_PROBLEMS` problems, followed by one line
    ``K more problems not shown`` when there are more; unchanged otherwise."""
    hidden = len(problems) - MAX_PROBLEMS
    return problems if hidden <= 0 else problems[:MAX_PROBLEMS] + [f"{hidden} more problems not shown"]


def _check_collections(collections, ray_count) -> list[Cone]:
    out = []
    for coll in collections:
        c = _cone(coll)
        if len(set(c)) != len(c):
            raise FanError(f"collection {tuple(coll)} has duplicate entries")
        if not all(1 <= i <= ray_count for i in c):
            raise FanError(f"collection {c} has indices outside 1..{ray_count}")
        if not 2 <= len(c) <= 5:
            raise FanError(f"collection {c} must have between 2 and 5 members")
        out.append(c)
    return out


def build_fan(rays: Sequence[LatticePoint], collections: Iterable[Iterable[int]]) -> Fan:
    """Build the fan whose non-faces are generated by ``collections``.

    A 4-subset of ray indices spans a maximal cone exactly when it contains
    no collection as a subset, tested on bitmasks of ray indices. Raises
    :class:`FanError` for collections with duplicate or out-of-range indices.
    """
    rays = tuple(tuple(v) for v in rays)
    masks = [sum(1 << i for i in c) for c in _check_collections(collections, len(rays))]
    indices = range(1, len(rays) + 1)
    subsets = itertools.combinations(indices, DIM)
    subset_bits = map(sum, itertools.combinations([1 << i for i in indices], DIM))
    maxcones = []
    for mc, bits in zip(subsets, subset_bits):
        for m in masks:
            if m & bits == m:
                break
        else:
            maxcones.append(mc)
    return Fan(rays, maxcones)


def build_fan_from_rays(rays: Sequence[LatticePoint]) -> Fan:
    """Build the face fan of the polytope spanned by ``rays``.

    A 4-subset spans a maximal cone when its rays lie on a common facet: the
    linear functional taking value 1 on all four rays exists (the rays are
    independent) and takes value strictly below 1 on every other ray. That
    functional is the sum of the adjugate rows divided by the determinant,
    so the test runs in integers as ``sign(det) * <sum, v> < |det|``. The
    result must validate as smooth and complete, otherwise the rays are not
    the vertex set of a suitable polytope and :class:`FanError` is raised,
    naming at most :data:`MAX_PROBLEMS` of the problems.
    """
    rays = tuple(tuple(v) for v in rays)
    maxcones = []
    for mc in itertools.combinations(range(1, len(rays) + 1), DIM):
        adj, det = adjugate4([rays[i - 1] for i in mc])
        if det == 0:
            continue
        sign = 1 if det > 0 else -1
        scaled = tuple(sign * sum(col) for col in zip(*adj))  # |det| times the functional
        if all(dot(scaled, rays[j - 1]) < abs(det) for j in range(1, len(rays) + 1) if j not in mc):
            maxcones.append(mc)
    fan = Fan(rays, maxcones)
    report = validate_fan(fan)
    if not report.ok:
        raise FanError("not a Fano face fan: " + "; ".join(cap_problems(report.problems)))
    return fan


def minimal_nonfaces(fan: Fan) -> tuple[Cone, ...]:
    """All minimal non-faces of the fan, i.e. its primitive collections.

    A subset of size 2 to 5 qualifies when it is not a face but every proper
    subset is; checking its facets suffices because faces are downward
    closed. Dropping the largest member of a minimal non-face leaves a face,
    so the candidates are the nonempty faces extended by one larger ray
    index, and that facet needs no check.
    """
    faces = fan._container
    found = []
    for face in faces:
        if not face:
            continue
        for r in range(face[-1] + 1, fan.ray_count + 1):
            sub = face + (r,)
            if sub not in faces and all(sub[:k] + sub[k + 1 :] in faces for k in range(len(face))):
                found.append(sub)
    return tuple(sorted(found, key=lambda c: (len(c), c)))


def containing_cones(fan: Fan, point: Sequence[int]) -> Iterator[tuple[Cone, tuple]]:
    """Yield ``(mc, coords)`` for every maximal cone ``mc`` that contains
    ``point``, in the order of ``fan.maxcones``.

    ``coords`` are the exact coordinates of ``point`` over the generators of
    ``mc``, all nonnegative. Each is one unrolled integer dot product with a
    row of the cone's dual basis (integers on a unimodular cone, ``Fraction``
    on any other nondegenerate one), and a cone is left at its first
    negative coordinate. The dual bases come from a per-fan table built on
    first use, which raises :class:`FanError` on a degenerate cone. This is
    the one place that decides whether a maximal cone holds a point:
    :func:`primitive_relation` and the overlap check of :func:`validate_fan`
    both ask it.
    """
    p0, p1, p2, p3 = point
    for mc, (u0, u1, u2, u3) in fan._cone_duals:
        c0 = u0[0] * p0 + u0[1] * p1 + u0[2] * p2 + u0[3] * p3
        if c0 < 0:
            continue
        c1 = u1[0] * p0 + u1[1] * p1 + u1[2] * p2 + u1[3] * p3
        if c1 < 0:
            continue
        c2 = u2[0] * p0 + u2[1] * p1 + u2[2] * p2 + u2[3] * p3
        if c2 < 0:
            continue
        c3 = u3[0] * p0 + u3[1] * p1 + u3[2] * p2 + u3[3] * p3
        if c3 < 0:
            continue
        yield mc, (c0, c1, c2, c3)


def primitive_relation(fan: Fan, collection: Iterable[int]) -> PrimitiveRelation:
    """Express the ray sum of a primitive collection over its minimal cone.

    Takes every maximal cone that contains the sum, with the sum's
    coordinates there (:func:`containing_cones`), and keeps the strictly
    positive support of the coordinates. Every containing cone must yield
    the same support and coefficients, else the minimal cone is ambiguous;
    on a smooth fan the coefficients are positive integers. The sum of the
    rays being zero gives the empty cone.
    """
    coll = _cone(collection)
    s = tuple(map(sum, zip(*(fan.rays[i - 1] for i in coll))))
    if not any(s):
        return PrimitiveRelation(coll, (), {}, len(coll))

    # each containing cone as its (generator, coefficient) pairs with v > 0
    seen = {tuple((i, v) for i, v in zip(mc, x) if v) for mc, x in containing_cones(fan, s)}
    if not seen:
        raise FanError(f"no containing cone for the ray sum of {coll}")
    if len(seen) > 1:
        found = sorted((tuple(i for i, _ in pairs), tuple(Fraction(v) for _, v in pairs)) for pairs in seen)
        raise FanError(f"ambiguous minimal cone for {coll}: {found}")
    (pairs,) = seen
    if any(v.denominator != 1 for _, v in pairs):
        raise FanError(f"non-integral coefficients for {coll}: fan is not smooth")
    support = tuple(i for i, _ in pairs)
    cmap = {i: int(v) for i, v in pairs}
    return PrimitiveRelation(coll, support, cmap, len(coll) - sum(cmap.values()))


def validate_fan(fan: Fan) -> FanReport:
    """Check simpliciality, smoothness and completeness.

    Smooth means every maximal cone's generators form a basis of the lattice
    (determinant +-1). Complete is proved from the walls of a simplicial fan
    by three checks: every 3-dimensional cone lies in exactly two maximal
    cones, those two lie on opposite sides of it, and the sum of the rays of
    the first maximal cone, an interior point of it, lies in no other
    maximal cone. Then the number of maximal cones containing a point that
    moves on a path avoiding the 2-dimensional cones changes only where the
    path crosses a wall, and there it stays the same: the point leaves one
    of the wall's two cones and enters the other. That complement is
    connected, so the number is the same at every point off the walls, and
    the third check makes it 1: the cones cover the space without
    overlapping. ``complete`` is true only when all three checks ran and
    passed, so never on a fan with a degenerate maximal cone. Failures are
    reported, never raised, and a degenerate cone is reported once.

    The pairing check reads :attr:`Fan.walls`. The side test reads
    :meth:`Fan.wall_relation`: the cones lie on opposite sides exactly when
    v_b has a negative coordinate x_a over the generators of ``wall + a``.
    The point check asks :func:`containing_cones`.
    """
    problems = []
    simplicial_ok = True
    smooth = True
    for mc in fan.maxcones:
        try:
            _, d = fan.cone_basis(mc)
        except FanError as exc:
            simplicial_ok = smooth = False
            problems.append(str(exc))
            continue
        if abs(d) != 1:
            smooth = False
            problems.append(f"cone {mc} has determinant {d}")

    walls = fan.walls
    gaps = [] if fan.maxcones else ["fan has no maximal cones"]
    for wall in fan.cones3:
        if len(walls[wall]) != 2:
            gaps.append(f"wall {wall} lies in {len(walls[wall])} maximal cone(s)")
    if simplicial_ok and not gaps:
        for wall in fan.cones3:
            a, b = walls[wall]
            if fan.wall_relation(wall)[a] >= 0:
                cone_a, cone_b = _cone(wall + (a,)), _cone(wall + (b,))
                gaps.append(f"cones {cone_a} and {cone_b} lie on one side of wall {wall}")
        first = fan.maxcones[0]
        point = tuple(map(sum, zip(*(fan.ray(i) for i in first))))
        gaps.extend(f"cones {first} and {mc} overlap" for mc, _ in containing_cones(fan, point) if mc != first)
    return FanReport(smooth, simplicial_ok and not gaps, simplicial_ok, problems + gaps)


def is_fano(fan: Fan) -> bool:
    """Whether every primitive relation has positive degree.

    Expects a fan that already validated as smooth and complete; relation
    errors from non-smooth input propagate.
    """
    return all(primitive_relation(fan, p).degree > 0 for p in minimal_nonfaces(fan))


def _relation_pairs(relations) -> list[tuple[Cone, dict[int, int]]]:
    pairs = []
    for rel in relations:
        if isinstance(rel, PrimitiveRelation):
            pairs.append((rel.collection, dict(rel.coeffs)))
        else:
            coll, coeffs = rel
            pairs.append((_cone(coll), {int(i): int(c) for i, c in coeffs.items()}))
    return pairs


def reconstruct_rays(relations, ray_count: int) -> tuple[LatticePoint, ...]:
    """Recover ray generators from a full set of primitive relations.

    ``relations`` is a sequence of ``PrimitiveRelation`` objects or of
    ``(collection, coeffs)`` pairs encoding the exact integer relations.
    The lexicographically first 4-subset containing no collection is seeded
    with the standard basis, and the relations are solved for the remaining
    rays. Raises :class:`FanError` with "underdetermined" when the relations
    do not pin down every ray, or "inconsistent" when they contradict each
    other; the reconstructed fan must validate as smooth and complete.

    The result is one representative: any other valid seed differs from it
    by a lattice automorphism (see :func:`lattice_equivalent`).
    """
    pairs = _relation_pairs(relations)
    collections = [set(coll) for coll, _ in pairs]
    for coll, coeffs in pairs:
        for i in list(coll) + list(coeffs):
            if not 1 <= i <= ray_count:
                raise FanError(f"relation index {i} outside 1..{ray_count}")

    seed = next(
        (
            mc
            for mc in itertools.combinations(range(1, ray_count + 1), DIM)
            if not any(p <= set(mc) for p in collections)
        ),
        None,
    )
    if seed is None:
        raise FanError("underdetermined: no 4-subset is free of the collections")

    unknowns = [i for i in range(1, ray_count + 1) if i not in seed]
    if unknowns and not pairs:
        raise FanError("underdetermined: no relations given")
    coeff_rows = []
    for coll, coeffs in pairs:
        a = {i: 0 for i in range(1, ray_count + 1)}
        for i in coll:
            a[i] += 1
        for j, c in coeffs.items():
            a[j] -= c
        coeff_rows.append(a)

    rays: dict[int, list] = {i: [0] * DIM for i in range(1, ray_count + 1)}
    for pos, i in enumerate(seed):
        rays[i] = [1 if c == pos else 0 for c in range(DIM)]

    if unknowns:
        matrix = [[a[i] for i in unknowns] for a in coeff_rows]
        for c in range(DIM):
            rhs = [-sum(a[s] * rays[s][c] for s in seed) for a in coeff_rows]
            sol = solve(matrix, rhs)
            if sol is None:
                raise FanError("inconsistent: the relations have no common solution")
            x, rank = sol
            if rank < len(unknowns):
                raise FanError("underdetermined: the relations do not fix every ray")
            for i, v in zip(unknowns, x):
                if v.denominator != 1:
                    raise FanError(f"inconsistent: ray {i} has non-integral coordinate {v}")
                rays[i][c] = int(v)

    result = tuple(tuple(rays[i]) for i in range(1, ray_count + 1))
    fan = build_fan(result, [_cone(p) for p in collections])
    report = validate_fan(fan)
    if not report.ok:
        raise FanError("reconstructed rays are invalid: " + "; ".join(report.problems))
    return result


def _column_matrix(vectors) -> list[list]:
    return [[v[r] for v in vectors] for r in range(DIM)]


def _matvec(m, v):
    return tuple(dot(row, v) for row in m)


def _matmul(a, b):
    return [[dot(a[i], [b[r][j] for r in range(DIM)]) for j in range(DIM)] for i in range(DIM)]


def lattice_equivalent(fan_a: Fan, fan_b: Fan) -> bool:
    """Whether some lattice automorphism carries one fan onto the other.

    Searches for an integer matrix of determinant +-1 mapping the ray set of
    ``fan_a`` bijectively onto the ray set of ``fan_b`` so that maximal cones
    correspond. Candidates are seeded by matching a fixed maximal cone of
    ``fan_a`` against every ordered maximal cone of ``fan_b``; this is
    exhaustive because any equivalence must match maximal cones.
    """
    if fan_a.ray_count != fan_b.ray_count or len(fan_a.maxcones) != len(fan_b.maxcones):
        return False
    if len(fan_a.cones2) != len(fan_b.cones2) or len(fan_a.cones3) != len(fan_b.cones3):
        return False

    base = fan_a.maxcones[0]
    # the dual basis, as rows, is the inverse of the generator column matrix
    try:
        base_inv, _ = fan_a.cone_basis(base)
    except FanError:
        return False
    ray_index_b = {v: j + 1 for j, v in enumerate(fan_b.rays)}
    maxset_b = set(fan_b.maxcones)

    for target in fan_b.maxcones:
        for perm in itertools.permutations(target):
            g = _matmul(_column_matrix([fan_b.ray(i) for i in perm]), base_inv)
            if any(x.denominator != 1 for row in g for x in row):
                continue
            mapping = {}
            for i in range(1, fan_a.ray_count + 1):
                image = tuple(int(x) for x in _matvec(g, fan_a.ray(i)))
                j = ray_index_b.get(image)
                if j is None:
                    break
                mapping[i] = j
            else:
                if len(set(mapping.values())) == fan_a.ray_count and all(
                    _cone(mapping[i] for i in mc) in maxset_b for mc in fan_a.maxcones
                ):
                    return True
    return False
