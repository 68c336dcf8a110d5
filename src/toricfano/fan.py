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
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from math import comb
from operator import itemgetter, mul

from .exactlin import adjugates4, solve

LatticePoint = tuple[int, int, int, int]
Cone = tuple[int, ...]

DIM = 4

# A list of problems shows at most this many, then how many it hides.
MAX_PROBLEMS = 10


class FanError(ValueError):
    """Input data does not describe a valid smooth complete fan."""


def _cone(indices: Iterable[int]) -> Cone:
    return tuple(sorted(indices))


# the positions in a maximal cone of the three rays of the wall opposite
# position k, in ascending order
_WALL_POSITIONS = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _lattice_points(rays: Iterable[Sequence[int]]) -> tuple[LatticePoint, ...]:
    """The rays as a tuple of integer tuples, the form every fan holds."""
    return tuple(tuple(map(int, v)) for v in rays)


class FanTables:
    """The combinatorial tables of a simplicial fan, which depend on its
    maximal cones alone, never on its rays.

    One pass over the maximal cones in sorted order, unrolled over the four
    rays of a cone, builds the sorted 3-dimensional cones :attr:`cones3` and
    the wall table :attr:`walls`, which maps each 3-cone ``tau`` to the rays
    ``n``, in ascending order, with ``tau + n`` a maximal cone (two on a
    complete fan; :func:`validate_fan` checks this).

    The same pass records where a fan stores what it computes from its
    rays: a fan's stores are addressed by index into :attr:`maxcones` and
    :attr:`cones3`. ``maxindex`` maps each maximal cone to its index.
    ``wall_rows``, aligned with :attr:`cones3`, holds ``(h, k)`` per wall:
    the index ``h`` of its holder in :attr:`maxcones`, the first maximal
    cone in sorted order that has it, and the position ``k`` in the holder
    of the ray opposite the wall, its near neighbour a. ``wall_links``,
    aligned with :attr:`cones3` too, holds each wall's neighbours as
    :attr:`walls` has them, so the far neighbour b is ``wall_links[t][1]``
    on a wall in exactly two maximal cones. That is all that validation and
    the Fano check read.

    The other tables are cached properties, each built on its first read
    and kept. :attr:`faces` maps each face to the maximal cone that holds
    it, the first in sorted order that has it, and sets the sorted 2-cones
    :attr:`cones2` in the same pass over the walls, taken in the order of
    their holders. :attr:`wall_at`, each wall's index in :attr:`cones3`,
    turns a wall into its index for the readers that start from a wall.
    :attr:`nonfaces` holds the minimal non-faces, derived from the maximal
    cones alone on subset bitmaps and without the face table, and
    :attr:`sweep` the index tables of the ch2 sweep. Fans with the same
    maximal cones can share one instance, and a fan built from primitive
    collections has the same maximal cones as any other with the same ray
    count and collections. Treated as immutable.
    """

    def __init__(self, maxcones: Iterable[Cone]):
        self.maxcones: tuple[Cone, ...] = tuple(sorted(map(_cone, maxcones)))
        self.maxindex: dict[Cone, int] = dict(zip(self.maxcones, range(len(self.maxcones))))
        # one pass over the maximal cones in sorted order: the first cone
        # that has a wall holds it, and the wall opposite each ray n of a
        # cone gains n, so the neighbours of a wall come in ascending order
        walls: dict[Cone, tuple[int, ...]] = {}
        # each wall's holder index h and the position k of the ray opposite
        # it, in the order the walls are met, which is their holders' order
        held: dict[Cone, tuple[int, int]] = {}
        for h, (a, b, c, d) in enumerate(self.maxcones):
            tau = (b, c, d)
            la = walls.get(tau)
            if la is None:
                walls[tau] = (a,)
                held[tau] = (h, 0)
            else:
                walls[tau] = la + (a,)
            tau = (a, c, d)
            lb = walls.get(tau)
            if lb is None:
                walls[tau] = (b,)
                held[tau] = (h, 1)
            else:
                walls[tau] = lb + (b,)
            tau = (a, b, d)
            lc = walls.get(tau)
            if lc is None:
                walls[tau] = (c,)
                held[tau] = (h, 2)
            else:
                walls[tau] = lc + (c,)
            tau = (a, b, c)
            ld = walls.get(tau)
            if ld is None:
                walls[tau] = (d,)
                held[tau] = (h, 3)
            else:
                walls[tau] = ld + (d,)
        self.walls: dict[Cone, tuple[int, ...]] = walls
        self.cones3: tuple[Cone, ...] = tuple(sorted(walls))
        self.wall_rows: list[tuple[int, int]] = list(map(held.__getitem__, self.cones3))
        self.wall_links: list[tuple[int, ...]] = list(map(walls.__getitem__, self.cones3))
        self._held = held

    @cached_property
    def faces(self) -> dict[Cone, Cone]:
        """Each face mapped to the first maximal cone in sorted order that
        has it; sets :attr:`cones2` in the same pass."""
        # The first cone H that has a pair or a ray has a wall with it, and
        # holds that wall: the wall's holder comes no later than H and has
        # the pair too. So the walls, taken in their holders' order, give
        # each pair and ray its holder when first met.
        maxcones = self.maxcones
        faces: dict[Cone, Cone] = {(): maxcones[0]} if maxcones else {}
        pairs = []
        for (a, b, c), (h, _) in self._held.items():
            mc = maxcones[h]
            faces[a, b, c] = mc
            for pair in ((a, b), (a, c), (b, c)):
                if pair not in faces:
                    faces[pair] = mc
                    pairs.append(pair)
            for ray in ((a,), (b,), (c,)):
                if ray not in faces:
                    faces[ray] = mc
        faces.update(zip(maxcones, maxcones))
        self.cones2 = tuple(sorted(pairs))
        return faces

    @cached_property
    def cones2(self) -> tuple[Cone, ...]:
        """The sorted 2-cones, which :attr:`faces` sets in its pass."""
        self.faces
        return self.__dict__["cones2"]

    @cached_property
    def wall_at(self) -> dict[Cone, int]:
        """Each wall's index in :attr:`cones3`."""
        return dict(zip(self.cones3, range(len(self.cones3))))

    @cached_property
    def sweep(self) -> tuple[list, list, list]:
        """The index tables of the ch2 sweep (:func:`toricfano.chern.classify`):
        ``(inside, outside, surface_rows)``.

        ``surface_rows``, aligned with :attr:`cones2`, holds ``(h, i, j)``
        per 2-cone ``(p, q)``: the index of its holder in :attr:`maxcones`
        and the positions of p and q in it, where the holder's dual basis
        has the duals of p and q. A wall tau borders three surfaces, tau
        minus each of its rays n. Each pair (wall, surface) is an entry,
        with ``s`` the surface's index in :attr:`cones2`, ``t`` the wall's
        index in :attr:`cones3`, and ``kn``, ``kp``, ``kq`` the positions of
        n and of the surface's rays p < q in the wall's holder, where the
        wall relation stores x_n, x_p and x_q. The entry is ``(s, t, kn)``
        in ``inside`` when n lies in the surface's holder, which happens
        exactly when the surface and the wall have the same holder (a holder
        of the surface with n in it contains the wall, and none comes before
        the wall's holder), and ``(s, t, n - 1, kn, kp, kq)`` in ``outside``
        otherwise.
        """
        # one pass over the 2-cones, then one over the walls
        faces, index = self.faces, self.maxindex
        surface_rows = []
        # the index of each 2-cone (p, q) at at[p][q]
        size = max((q for _, q in self.cones2), default=0) + 1
        at = [[0] * size for _ in range(size)]
        for s, (p, q) in enumerate(self.cones2):
            mc = faces[p, q]
            surface_rows.append((index[mc], mc.index(p), mc.index(q)))
            at[p][q] = s
        inside, outside = [], []
        for t, ((a, b, c), (h, k)) in enumerate(zip(self.cones3, self.wall_rows)):
            ka, kb, kc = _WALL_POSITIONS[k]
            # the surfaces (b, c), (a, c) and (a, b), across n = a, b and c
            s = at[b][c]
            if surface_rows[s][0] == h:
                inside.append((s, t, ka))
            else:
                outside.append((s, t, a - 1, ka, kb, kc))
            s = at[a][c]
            if surface_rows[s][0] == h:
                inside.append((s, t, kb))
            else:
                outside.append((s, t, b - 1, kb, ka, kc))
            s = at[a][b]
            if surface_rows[s][0] == h:
                inside.append((s, t, kc))
            else:
                outside.append((s, t, c - 1, kc, ka, kb))
        return inside, outside, surface_rows

    @cached_property
    def nonfaces(self) -> tuple[Cone, ...]:
        """All minimal non-faces, in order of size, then lexicographically,
        with n the largest ray index in the maximal cones.

        A subset of size 2 to 5 qualifies when it is not a face but every
        proper subset is. Every proper subset is a face exactly when the
        subset holds no ray outside the maximal cones and no smaller minimal
        non-face, so the sizes are taken in turn, on the subset bitmaps of
        :func:`_subset_bits`. The maximal cones are bits over the
        4-subsets, and ``held[i]`` the cones that hold ray i. The candidates
        of size k are the k-subsets that hold neither an unused ray nor a
        non-face already found (``smaller[k]``); a candidate pair or triple
        is a non-face when no cone holds all of it (the AND of its rays'
        ``held`` is 0), a candidate 4-subset when it is not a cone, and a
        5-subset always is. Each non-face found marks the subsets of every
        larger size that hold it. No 6-subset qualifies, since its 5-subsets
        are non-faces, and no non-face of two or more rays holds an unused
        ray, so the rays above n change nothing.
        """
        n, top = max((mc[-1] for mc in self.maxcones), default=0), DIM + 1
        # indexed by size; no non-face has fewer than two rays
        contains = [()] * 2 + [_subset_bits(n, size) for size in range(2, top + 1)]
        bits4 = contains[DIM]
        cones = 0
        for a, b, c, d in self.maxcones:
            cones |= bits4[a] & bits4[b] & bits4[c] & bits4[d]
        held = [cones & bits for bits in bits4]
        smaller = [0] * (top + 1)
        for i in range(1, n + 1):
            if not held[i]:
                for size in range(2, top + 1):
                    smaller[size] |= contains[size][i]
        found = []
        for size in range(2, top + 1):
            candidates = ((1 << comb(n, size)) - 1) & ~smaller[size]
            if size == DIM:
                candidates &= ~cones
            subs = _subsets(n, size, candidates)
            if size == 2:
                subs = [(i, j) for i, j in subs if not held[i] & held[j]]
            elif size == 3:
                subs = [(i, j, k) for i, j, k in subs if not held[i] & held[j] & held[k]]
            else:
                subs = list(subs)
            found += subs
            for larger in range(size + 1, top + 1):
                bits = contains[larger]
                for sub in subs:
                    inside = -1
                    for i in sub:
                        inside &= bits[i]
                    smaller[larger] |= inside
        return tuple(found)


class Fan:
    """An indexed ray list plus the set of maximal cones.

    Instances are built by :func:`build_fan` or :func:`build_fan_from_rays`
    and treated as immutable afterwards. The combinatorial tables
    (:class:`FanTables`: :attr:`cones3`, the wall table :attr:`walls`, the
    index tables of the stores, and on first read the faces,
    :attr:`cones2` and the minimal non-faces) are built from the maximal
    cones, or shared with another fan that has the same maximal cones:
    ``Fan(rays, other.tables)``. The fans that :func:`build_fan` makes from
    equal ray counts and equal collections have equal maximal cones, so
    :func:`toricfano.atlas.analyse_each` shares tables between such records
    and holds at most one table set. The rays
    are any sequences of integers, converted here to the tuple of integer
    tuples that every fan holds; the builders convert them on entry and
    the atlas passes parsed rays, so neither converts them twice.

    Everything that reads the rays stays with the fan and is never shared,
    in two stores, lists addressed by position: :meth:`cone_bases`, the
    dual basis and determinant of each maximal cone, aligned with
    :attr:`maxcones`, and :meth:`wall_relations`, one coordinate 4-tuple per
    wall in the order of its holder's rays, aligned with :attr:`cones3`.
    Each face is held by one maximal cone, whose dual basis serves every
    functional on that face. Each store is ``None`` until its first read
    fills it, and is kept only once it is whole, so a fill that raises
    leaves it unfilled. :func:`validate_fan` computes every basis and
    relation once, and the Fano check, :func:`~toricfano.chern.classify`
    and :func:`containing_cones` read the stores with one call each, and so
    does the sum of a single surface
    (:func:`toricfano.chern.ch2_dot_surface`) on whatever fan it is given.
    :meth:`cone_basis` and :meth:`wall_relation` read one place.

    The intersection methods raise :class:`FanError` naming the cone on a
    degenerate maximal cone, a wall outside exactly two maximal cones, or a
    cone that is not a face; :func:`validate_fan` reports these instead.
    """

    def __init__(self, rays: Iterable[Sequence[int]], maxcones: Iterable[Cone] | FanTables):
        tables = maxcones if isinstance(maxcones, FanTables) else FanTables(maxcones)
        self._attach(_lattice_points(rays), tables)

    @classmethod
    def _on_points(cls, rays: tuple[LatticePoint, ...], tables: FanTables) -> Fan:
        """A fan on rays that are already a tuple of integer tuples, as
        :func:`toricfano.atlas.parse` and the builders make them, held as
        given."""
        fan = cls.__new__(cls)
        fan._attach(rays, tables)
        return fan

    def _attach(self, rays: tuple[LatticePoint, ...], tables: FanTables) -> None:
        self.rays = rays
        self.tables = tables
        # the tables' fields as plain attributes, read on every hot path
        self.maxcones = tables.maxcones
        self._maxindex = tables.maxindex
        self.walls = tables.walls
        self.cones3 = tables.cones3
        self._bases: list | None = None
        self._relations: list | None = None

    @property
    def cones2(self) -> tuple[Cone, ...]:
        """The sorted 2-cones, read from the tables, which build them on
        first read."""
        return self.tables.cones2

    @property
    def ray_count(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> LatticePoint:
        """Generator of ray ``i`` (1-based, matching the printed tables).
        Raises :class:`FanError` when ``i`` is outside ``1..ray_count``."""
        if not 1 <= i <= len(self.rays):
            raise FanError(f"ray index {i} outside 1..{len(self.rays)}")
        return self.rays[i - 1]

    def is_face(self, indices: Iterable[int]) -> bool:
        return _cone(indices) in self.tables.faces

    def is_maxcone(self, indices: Iterable[int]) -> bool:
        return _cone(indices) in self._maxindex

    def cone_bases(self) -> list:
        """The store of ``(duals, det)`` per maximal cone, a list aligned
        with :attr:`maxcones`, filled whole on the first call and returned.

        ``det`` is the determinant of the generators in index order and
        ``duals[k]`` the functional equal to 1 on generator ``mc[k]`` and 0
        on the others: the adjugate row divided by ``det``, so integers when
        ``det`` is +-1 and ``Fraction`` otherwise. A degenerate cone is
        stored as ``(None, 0)``, so filling never raises on one; its readers
        raise :class:`FanError` naming the cone when they need its duals.
        Each basis is computed once per fan, by one :func:`adjugates4` call.
        """
        if self._bases is not None:
            return self._bases
        rays = self.rays
        matrices = [(rays[i - 1], rays[j - 1], rays[k - 1], rays[l - 1]) for i, j, k, l in self.maxcones]
        store = []
        for adj, det in adjugates4(matrices):
            if det == 1:
                duals = adj
            elif det == -1:
                (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = adj
                duals = ((-a0, -a1, -a2, -a3), (-b0, -b1, -b2, -b3), (-c0, -c1, -c2, -c3), (-d0, -d1, -d2, -d3))
            elif det:
                from fractions import Fraction

                duals = tuple(tuple(Fraction(x, det) for x in row) for row in adj)
            else:
                duals = None
            store.append((duals, det))
        self._bases = store
        return store

    def cone_basis(self, mc: Cone) -> tuple:
        """``(duals, det)`` of the maximal cone ``mc``, read from
        :meth:`cone_bases`. Raises :class:`FanError` naming the cone when it
        is degenerate (``det`` 0) or not a maximal cone.
        """
        h = self._maxindex.get(mc)
        if h is None:
            raise FanError(f"{mc} is not a maximal cone of the fan")
        entry = self.cone_bases()[h]
        if not entry[1]:
            raise FanError(f"cone {mc} is degenerate")
        return entry

    def dual(self, w: int, cone: Cone):
        """A functional equal to 1 on ray ``w`` and 0 on the rest of ``cone``.

        ``cone`` is a sorted face containing ``w``; the functional is the dual
        basis element of ``w`` on the maximal cone holding that face. Raises
        :class:`FanError` when ``cone`` is not a face, does not contain
        ``w``, or that maximal cone is degenerate.
        """
        mc = self.tables.faces.get(cone)
        if mc is None:
            raise FanError(f"{cone} is not a cone of the fan")
        if w not in cone:
            raise FanError(f"ray {w} is not in {cone}")
        return self.cone_basis(mc)[0][mc.index(w)]

    def wall_relations(self) -> list:
        """The store of wall relations, a list aligned with :attr:`cones3`,
        filled whole on the first call and returned. Raises only where
        :meth:`cone_bases` does.

        With neighbours a < b in :attr:`walls`, ``tau + a`` is the maximal
        cone holding ``tau`` (at the first place where the two sorted cones
        differ, one has a and the other a larger ray). The relation of
        ``tau`` is the 4-tuple of coordinates x_k in ``v_b = sum_k x_k v_k``
        over the rays k of ``tau + a``, in their order; ``tables.wall_rows``
        has the position of x_a. The cones lie on opposite sides of ``tau``
        exactly when x_a < 0, and x_w for w in ``tau`` gives the curve
        numbers (:meth:`curve_numbers`). A wall that lies in other than two
        maximal cones, or whose holder is degenerate, has no relation and
        keeps ``None``; the readers that need it raise the error of
        :meth:`_no_relation`. The bases of the holders come from
        :meth:`cone_bases`, and each relation is computed once per fan.
        """
        if self._relations is not None:
            return self._relations
        bases, rays = self.cone_bases(), self.rays
        store = [None] * len(self.cones3)
        for t, (link, (h, _)) in enumerate(zip(self.tables.wall_links, self.tables.wall_rows)):
            duals = bases[h][0]
            if len(link) != 2 or duals is None:
                continue
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = duals
            v0, v1, v2, v3 = rays[link[1] - 1]
            store[t] = (
                a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3,
                b0 * v0 + b1 * v1 + b2 * v2 + b3 * v3,
                c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3,
                d0 * v0 + d1 * v1 + d2 * v2 + d3 * v3,
            )
        self._relations = store
        return store

    def _no_relation(self, t: int) -> FanError:
        """Why the wall at index ``t`` of :attr:`cones3` has no relation:
        it lies in other than two maximal cones, or its holder is
        degenerate."""
        link = self.tables.wall_links[t]
        if len(link) != 2:
            return FanError(f"wall {self.cones3[t]} lies in {len(link)} maximal cone(s)")
        return FanError(f"cone {self.maxcones[self.tables.wall_rows[t][0]]} is degenerate")

    def wall_relation(self, tau: Cone) -> dict:
        """The wall relation of the sorted 3-cone ``tau`` as a mapping from
        each ray k of its holder to x_k, read from :meth:`wall_relations`.
        Raises :class:`FanError` when ``tau`` is not a 3-cone of the fan or
        has no relation (:meth:`_no_relation`)."""
        t = self.tables.wall_at.get(tau)
        if t is None:
            raise FanError(f"{tau} is not a 3-dimensional cone of the fan")
        x = self.wall_relations()[t]
        if x is None:
            raise self._no_relation(t)
        return dict(zip(self.maxcones[self.tables.wall_rows[t][0]], x))

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


class PrimitiveRelation(namedtuple("PrimitiveRelation", "collection sigma coeffs degree")):
    """The unique positive expression of ``sum(collection)`` over a cone.

    ``collection`` and the generator cone ``sigma`` are sorted tuples of ray
    indices; ``coeffs`` maps generator index to its positive integer
    coefficient; the generator cone is empty when the rays of the collection
    sum to zero. ``degree`` is ``len(collection) - sum(coeffs.values())``.
    """

    __slots__ = ()

    def describe(self) -> str:
        """The relation as ``toricfano show`` prints it, e.g.
        ``{1, 6}: v1 + v6 = v7  degree 1``."""
        members = ", ".join(str(i) for i in self.collection)
        lhs = " + ".join(f"v{i}" for i in self.collection)
        rhs = " + ".join(f"{c}*v{j}" if c != 1 else f"v{j}" for j, c in sorted(self.coeffs.items()))
        return f"{{{members}}}: {lhs} = {rhs or '0'}  degree {self.degree}"


class FanReport(namedtuple("FanReport", "smooth complete simplicial_ok problems")):
    """Validation outcome, with one message per failed condition: the flags
    ``smooth``, ``complete`` and ``simplicial_ok``, and the list of
    ``problems``."""

    __slots__ = ()

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


@lru_cache(maxsize=64)
def _subset_bits(ray_count: int, size: int) -> tuple[int, ...]:
    """The subset table of ray count n and size k: for each ray i, the
    bitmap ``contains[i]`` of the places of the k-subsets of ``1..n`` that
    hold it, in lexicographic order (bit s for the subset at s;
    ``contains[0]`` is 0). The subsets that hold all of a set of rays are
    the AND of their bitmaps, and :func:`_subsets` reads them off. Three
    readers share the tables: :func:`_free_subsets` reads size 4 for the
    maximal cones of :func:`build_fan` and :func:`build_star`, and of
    :func:`reconstruct_rays`, and :func:`minimal_nonfaces` the sizes 2 to
    5. The last 64 tables are kept: the sizes 2 to 5 for 16 ray counts,
    more than an atlas of at most 12 rays has. The subsets themselves are
    not kept, as ``itertools.combinations`` makes them again in the same
    order."""
    contains = [0] * (ray_count + 1)
    for s, subset in enumerate(itertools.combinations(range(1, ray_count + 1), size)):
        bit = 1 << s
        for i in subset:
            contains[i] |= bit
    return tuple(contains)


# bin() digits as 0 and 1 bytes, which itertools.compress reads as selectors
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _subsets(ray_count: int, size: int, bits: int) -> Iterator[Cone]:
    """The ``size``-subsets of ``1..ray_count`` at the places set in
    ``bits``, in lexicographic order."""
    # one selector byte per place, lowest first
    selectors = bin(bits)[:1:-1].encode().translate(_BITS)
    return itertools.compress(itertools.combinations(range(1, ray_count + 1), size), selectors)


def _free_subsets(ray_count: int, collections: Iterable[Cone], sigma: Cone = ()) -> list[Cone]:
    """The 4-subsets of ``1..ray_count`` that contain the sorted cone
    ``sigma`` and no collection, in lexicographic order: the maximal cones
    of the fan the collections generate, and with ``sigma`` those of its
    star. A ``sigma`` with a repeated index or one outside ``1..ray_count``
    is in no 4-subset.

    The search is bit-parallel over the subset table of
    :func:`_subset_bits`: it starts from every 4-subset, keeps those that
    hold each ray of ``sigma`` (the AND of their bitmaps), clears those that
    hold a collection (the AND of the collection's bitmaps) and reads the
    subsets off the bits that are left. Its cost is a few operations on
    integers of C(n, 4) bits per ray of each collection, not a test per
    subset and collection."""
    if len(set(sigma)) != len(sigma) or not all(1 <= i <= ray_count for i in sigma):
        return []
    contains = _subset_bits(ray_count, DIM)
    free = (1 << comb(ray_count, DIM)) - 1
    for i in sigma:
        free &= contains[i]
    for c in collections:
        inside = free
        for i in c:
            inside &= contains[i]
        free ^= inside
    return list(_subsets(ray_count, DIM, free))


def build_fan(rays: Sequence[LatticePoint], collections: Iterable[Iterable[int]]) -> Fan:
    """Build the fan whose non-faces are generated by ``collections``.

    A 4-subset of ray indices spans a maximal cone exactly when it contains
    no collection as a subset (:func:`_free_subsets`). Raises
    :class:`FanError` for collections with duplicate or out-of-range indices.
    """
    rays = _lattice_points(rays)
    maxcones = _free_subsets(len(rays), _check_collections(collections, len(rays)))
    return Fan._on_points(rays, FanTables(maxcones))


def build_star(rays: Sequence[LatticePoint], collections: Iterable[Iterable[int]], sigma: Iterable[int]) -> Fan:
    """The star of the cone ``sigma`` in ``build_fan(rays, collections)``:
    the maximal cones that contain ``sigma``, on the same rays, and none
    when ``sigma`` is not a cone. Raises as :func:`build_fan`.

    The invariant surface of a 2-cone sigma is the toric variety of its
    star (Fulton, *Introduction to Toric Varieties*, 3.1), and the star
    gives :func:`toricfano.chern.ch2_dot_surface` the value of the full
    fan from fewer cones; ``ch2 --surface`` on the bundled atlas sums on
    it. Every maximal cone that contains a wall sigma + n contains sigma,
    so the star holds both cones of each wall around sigma, and the first
    of them in sorted order, the wall's holder, is the full fan's; so is
    the holder of sigma. Those are all that the single surface reads.
    """
    rays = _lattice_points(rays)
    maxcones = _free_subsets(len(rays), _check_collections(collections, len(rays)), _cone(sigma))
    return Fan._on_points(rays, FanTables(maxcones))


def _triple_functionals(rays: Sequence[LatticePoint]) -> list[list[list]]:
    # table[a][b][c], for 0-based a < b < c, is the integer functional
    # x -> det(v_a, v_b, v_c, x), built from the 2x2 minors of each pair b < c
    n = len(rays)
    table = [[[None] * n for _ in range(n)] for _ in range(n)]
    for b in range(n):
        b0, b1, b2, b3 = rays[b]
        for c in range(b + 1, n):
            c0, c1, c2, c3 = rays[c]
            m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
            m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
            for a in range(b):
                a0, a1, a2, a3 = rays[a]
                table[a][b][c] = (
                    a2 * m13 - a1 * m23 - a3 * m12,
                    a0 * m23 - a2 * m03 + a3 * m02,
                    a1 * m03 - a0 * m13 - a3 * m01,
                    a0 * m12 - a1 * m02 + a2 * m01,
                )
    return table


def build_fan_from_rays(rays: Sequence[LatticePoint]) -> Fan:
    """Build the face fan of the polytope spanned by ``rays``.

    A 4-subset spans a maximal cone when its rays lie on a common facet: the
    linear functional taking value 1 on all four rays exists (the rays are
    independent) and takes value strictly below 1 on every other ray. The
    test runs in integers. With L(a, b, c) the functional
    ``x -> det(v_a, v_b, v_c, x)``, computed once per ray triple, the
    subset a < b < c < d has determinant ``det = <L(a, b, c), v_d>``, and
    ``F = L(a, b, c) - L(a, b, d) + L(a, c, d) - L(b, c, d)`` is the sum of
    its adjugate rows, ``det`` times the facet functional. So ``sign(det) F``
    takes the value ``|det|`` on the four rays, and the subset spans a
    maximal cone exactly when no other ray reaches it. The result must
    validate as smooth and complete, otherwise the rays are not the vertex
    set of a suitable polytope and :class:`FanError` is raised, naming at
    most :data:`MAX_PROBLEMS` of the problems.
    """
    rays = _lattice_points(rays)
    n = len(rays)
    table = _triple_functionals(rays)
    maxcones = []
    for a in range(n):
        for b in range(a + 1, n):
            row_ab = table[a][b]
            for c in range(b + 1, n):
                p0, p1, p2, p3 = row_ab[c]
                row_ac, row_bc = table[a][c], table[b][c]
                for d in range(c + 1, n):
                    d0, d1, d2, d3 = rays[d]
                    det = p0 * d0 + p1 * d1 + p2 * d2 + p3 * d3
                    if not det:
                        continue
                    q0, q1, q2, q3 = row_ab[d]
                    r0, r1, r2, r3 = row_ac[d]
                    s0, s1, s2, s3 = row_bc[d]
                    f0, f1 = p0 - q0 + r0 - s0, p1 - q1 + r1 - s1
                    f2, f3 = p2 - q2 + r2 - s2, p3 - q3 + r3 - s3
                    if det < 0:
                        f0, f1, f2, f3, det = -f0, -f1, -f2, -f3, -det
                    # the four rays of the subset reach det exactly, so a fifth hit is another ray
                    hits = 0
                    for x0, x1, x2, x3 in rays:
                        if f0 * x0 + f1 * x1 + f2 * x2 + f3 * x3 >= det:
                            hits += 1
                            if hits > 4:
                                break
                    else:
                        maxcones.append((a + 1, b + 1, c + 1, d + 1))
    fan = Fan._on_points(rays, FanTables(maxcones))
    report = validate_fan(fan)
    if not report.ok:
        raise FanError("not a Fano face fan: " + "; ".join(cap_problems(report.problems)))
    return fan


def minimal_nonfaces(fan: Fan) -> tuple[Cone, ...]:
    """All minimal non-faces of the fan, i.e. its primitive collections, in
    order of size, then lexicographically: :attr:`FanTables.nonfaces`,
    derived once per table set and shared by the fans that share it. They
    name the collections that ``toricfano show`` prints for a record without
    any, are derived on load for the bundled M5, and decide the round trip
    of declared collections (:class:`toricfano.atlas.VarietyAnalysis`).
    """
    return fan.tables.nonfaces


def containing_cones(fan: Fan, point: Sequence[int]) -> Iterator[tuple[Cone, tuple]]:
    """Yield ``(mc, coords)`` for every maximal cone ``mc`` that contains
    ``point``, in the order of ``fan.maxcones``.

    ``coords`` are the exact coordinates of ``point`` over the generators of
    ``mc``, all nonnegative. Each is one unrolled integer dot product with a
    row of the cone's dual basis (integers on a unimodular cone, ``Fraction``
    on any other nondegenerate one), and a cone is left at its first
    negative coordinate. The dual bases are read from the fan's store
    (:meth:`Fan.cone_bases`, one call), and a degenerate cone raises
    :class:`FanError` when the scan reaches it. This is the one place that
    decides whether a maximal cone holds a point: :func:`primitive_relation`
    and the overlap check of :func:`validate_fan` both ask it.
    """
    p0, p1, p2, p3 = point
    for mc, (duals, det) in zip(fan.maxcones, fan.cone_bases()):
        if not det:
            raise FanError(f"cone {mc} is degenerate")
        u0, u1, u2, u3 = duals
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
    rays being zero gives the empty cone. Raises :class:`FanError` with
    :func:`build_fan`'s messages for a collection with a repeated index, an
    index outside ``1..ray_count`` or other than 2 to 5 members.
    """
    (coll,) = _check_collections((collection,), fan.ray_count)
    s = tuple(map(sum, zip(*(fan.rays[i - 1] for i in coll))))
    if not any(s):
        return PrimitiveRelation(coll, (), {}, len(coll))

    # each containing cone as its (generator, coefficient) pairs with v > 0
    seen = {tuple((i, v) for i, v in zip(mc, x) if v) for mc, x in containing_cones(fan, s)}
    if not seen:
        raise FanError(f"no containing cone for the ray sum of {coll}")
    if len(seen) > 1:
        found = sorted((tuple(i for i, _ in pairs), tuple(v for _, v in pairs)) for pairs in seen)
        cones = "; ".join(f"{cone} with coefficients {', '.join(map(str, coeffs))}" for cone, coeffs in found)
        raise FanError(f"ambiguous minimal cone for {coll}: {cones}")
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

    Each kernel runs once per fan, as one batch: :meth:`Fan.cone_bases`
    over all maximal cones gives the determinants, then, when every cone is
    nondegenerate and every wall lies in two cones, :meth:`Fan.wall_relations`
    over all walls gives the side test. Both stores are read by position,
    alongside :attr:`Fan.maxcones` and :attr:`Fan.cones3`. The pairing check
    reads the neighbours of each wall from ``tables.wall_links``. The
    cones of a wall lie on opposite sides exactly when v_b has a negative
    coordinate x_a over the generators of ``wall + a``, the holder, at the
    position of a that ``tables.wall_rows`` records. The point check asks
    :func:`containing_cones`, which reads the filled bases. The fan keeps
    both stores, so later readers (the Fano check, ch2 on every surface)
    compute neither again.
    """
    problems = []
    simplicial_ok = True
    smooth = True
    maxcones = fan.maxcones
    for mc, (_, d) in zip(maxcones, fan.cone_bases()):
        if not d:
            simplicial_ok = smooth = False
            problems.append(f"cone {mc} is degenerate")
        elif abs(d) != 1:
            smooth = False
            problems.append(f"cone {mc} has determinant {d}")

    tables = fan.tables
    gaps = [] if maxcones else ["fan has no maximal cones"]
    for wall, link in zip(fan.cones3, tables.wall_links):
        if len(link) != 2:
            gaps.append(f"wall {wall} lies in {len(link)} maximal cone(s)")
    if simplicial_ok and not gaps:
        for wall, x, (h, k), (_, b) in zip(fan.cones3, fan.wall_relations(), tables.wall_rows, tables.wall_links):
            if x[k] >= 0:
                gaps.append(f"cones {maxcones[h]} and {_cone(wall + (b,))} lie on one side of wall {wall}")
        first = maxcones[0]
        point = tuple(map(sum, zip(*(fan.ray(i) for i in first))))
        gaps.extend(f"cones {first} and {mc} overlap" for mc, _ in containing_cones(fan, point) if mc != first)
    return FanReport(smooth, simplicial_ok and not gaps, simplicial_ok, problems + gaps)


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
    rays. Before any solving, raises :class:`FanError` naming the relation
    when an index is out of range, its collection repeats an index or a
    coefficient is not positive, and then with :func:`build_fan`'s message
    for a collection of other than 2 to 5 members; the relation checks come
    first, so a duplicate or out-of-range index is always named as a
    relation's. It raises with "underdetermined" when the relations do not
    pin down every ray, or "inconsistent" when they contradict each other;
    the reconstructed fan must validate as smooth and complete.

    The result is one representative: any other valid seed differs from it
    by a lattice automorphism, so the two have the same :func:`lattice_key`.
    """
    pairs = _relation_pairs(relations)
    for coll, coeffs in pairs:
        for i in list(coll) + list(coeffs):
            if not 1 <= i <= ray_count:
                raise FanError(f"relation index {i} outside 1..{ray_count}")
        # a repeated index would count as a coefficient 2 on its ray
        if len(set(coll)) != len(coll):
            raise FanError(f"relation of collection {coll} has duplicate entries")
        for j, c in coeffs.items():
            if c <= 0:
                raise FanError(f"relation of collection {coll} has coefficient {c} on ray {j}, not positive")
    collections = [coll for coll, _ in pairs]
    # the collection sizes that build_fan accepts
    _check_collections(collections, ray_count)

    # the maximal cones depend on the collections alone: the seed is the
    # first, and the reconstructed fan is built on the same tables
    tables = FanTables(_free_subsets(ray_count, collections))
    if not tables.maxcones:
        raise FanError("underdetermined: no 4-subset is free of the collections")
    seed = tables.maxcones[0]

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
    report = validate_fan(Fan._on_points(result, tables))
    if not report.ok:
        raise FanError("reconstructed rays are invalid: " + "; ".join(cap_problems(report.problems)))
    return result


def lattice_key(fan: Fan) -> tuple | None:
    """A normal form of the fan under GL4(Z), after the PALP normal form
    (Kreuzer and Skarke, 2004): ``(rays, maxcones)`` of an equivalent fan,
    with the rays sorted, or ``None`` when no maximal cone is unimodular.

    Each unimodular maximal cone, with each of the 24 orderings of its
    rays, gives a candidate: every ray written in that ordered dual basis
    (:meth:`Fan.cone_bases`, integers), sorted, and the maximal cones
    relabelled by the rank of each ray there. The key is the least
    candidate. An automorphism maps unimodular cones onto unimodular cones
    and keeps every ray's coordinates, so it keeps the candidates; two equal
    candidates give the integral map from one basis onto the other, which
    carries rays onto rays and cones onto cones. Cones of another nonzero
    determinant are skipped; a degenerate maximal cone raises :class:`FanError`.
    """
    rays, maxcones = fan.rays, fan.maxcones
    best = None
    for mc, (duals, det) in zip(maxcones, fan.cone_bases()):
        if not det:
            raise FanError(f"cone {mc} is degenerate")
        if det != 1 and det != -1:
            continue
        coords = [tuple(sum(map(mul, u, v)) for u in duals) for v in rays]
        for order in itertools.permutations(range(DIM)):
            images = list(map(itemgetter(*order), coords))
            ranked = tuple(sorted(images))
            # the cones break a tie of the sorted rays only
            if best is not None and ranked > best[0]:
                continue
            rank = dict(zip(ranked, range(1, len(rays) + 1)))
            label = [rank[image] for image in images]
            candidate = ranked, tuple(sorted(_cone(label[i - 1] for i in c) for c in maxcones))
            if best is None or candidate < best:
                best = candidate
    return best


def lattice_equivalent(fan_a: Fan, fan_b: Fan) -> bool:
    """Whether a lattice automorphism carries one fan onto the other: equal
    ray and maximal cone counts and equal :func:`lattice_key`. A fan with no
    unimodular maximal cone (key ``None``) or with a degenerate one is
    equivalent to none, itself included; neither passes :func:`validate_fan`.
    """
    if fan_a.ray_count != fan_b.ray_count or len(fan_a.maxcones) != len(fan_b.maxcones):
        return False
    try:
        key = lattice_key(fan_a)
        return key is not None and key == lattice_key(fan_b)
    except FanError:
        return False
