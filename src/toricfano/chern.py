"""Intersection numbers of invariant divisors with invariant curves and
surfaces, and the second Chern character test built on them.

On a smooth complete toric 4-fold the orbit closure of a 3-dimensional cone
is an invariant curve and that of a 2-dimensional cone an invariant surface.
For a ray w and a cone not containing it, the divisor D_w meets the orbit
closure transversally: the product is the orbit closure of the enlarged cone
when the enlarged set spans a cone, and zero otherwise. When w lies in the
cone, D_w is first replaced by the linearly equivalent divisor

    D_w - sum_j <u, v_j> D_j

where u is a functional with <u, v_w> = 1 and <u, v_j> = 0 on the cone's
other generators; the replacement meets the orbit closure properly,
reducing to the transversal case. Any valid u gives the same intersection
numbers. By default u is the dual basis element of w on a maximal cone
containing the cone (:meth:`Fan.dual`), an integer vector on a smooth fan,
so every number below is an integer sum until ch2 halves it. The default
route reads the wall relations of the fan and raises
:class:`~toricfano.fan.FanError` where the fan has none to give; a ``u_fn``
argument takes the divisor-by-divisor route instead, the reference that
the tests compare the default against.

The second Chern character of the tangent bundle is half the sum of the
squares of the invariant divisors, so its value on an invariant surface is
assembled from divisor-curve numbers. A Fano variety is called 2-Fano when
these values are positive on every surface, and has nef second Chern
character when they are all nonnegative; positivity on the invariant
surfaces settles the question for all surfaces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from operator import mul

from .exactlin import dot
from .fan import Cone, Fan, FanError, _cone

# true for a type checker only, so annotations can name Fraction unimported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

CurveCycle = dict  # 3-cone -> int or Fraction, zero coefficients dropped

TWO_FANO = "two_fano"
NEF_NOT_TWO_FANO = "nef_not_two_fano"
NOT_NEF = "not_nef"

UFunction = Callable[[Fan, int, Cone], tuple]


class Ch2Report:
    """Second-Chern-character values on every invariant surface of a fan,
    made from ``twice``, the doubled values aligned with the sorted 2-cones
    ``cones2``. ``min_value`` is the least value, the report's one
    ``Fraction`` until ``values`` is read, attained first at the 2-cone
    ``witness``; ``classification`` is one of :data:`TWO_FANO`,
    :data:`NEF_NOT_TWO_FANO` and :data:`NOT_NEF`. ``values`` maps each
    2-cone to its ``Fraction``; it is built on first read and kept."""

    __slots__ = ("min_value", "witness", "classification", "_cones2", "_twice", "_values")

    def __init__(self, cones2: tuple, twice: list):
        from fractions import Fraction

        least = min(twice)
        # cones2 is sorted, so the first least sum is at the least 2-cone
        self.witness = cones2[twice.index(least)]
        self.min_value = Fraction(least, 2)
        self.classification = _classification(self.min_value)
        self._cones2, self._twice, self._values = cones2, twice, None

    @property
    def values(self) -> dict:
        if self._values is None:
            from fractions import Fraction

            self._values = {sigma: Fraction(total, 2) for sigma, total in zip(self._cones2, self._twice)}
        return self._values


def divisor_dot_curve(fan: Fan, w: int, tau: Iterable[int], u_fn: UFunction | None = None) -> int | Fraction:
    """Intersection number of divisor ``w`` with the curve of 3-cone ``tau``.

    An ``int`` with the default functional on a smooth fan, read from
    :meth:`Fan.curve_numbers`. ``u_fn`` overrides the functional choice,
    which is useful for checking that the choice does not matter. Both
    routes raise :class:`FanError` for a ``w`` outside ``1..ray_count``
    and for a ``tau`` that is not a 3-cone of the fan.
    """
    fan.ray(w)  # refuses a divisor that the fan does not have
    tau = _cone(tau)
    if len(tau) != 3 or (u_fn is not None and not fan.is_face(tau)):
        raise FanError(f"{tau} is not a 3-dimensional cone of the fan")
    if u_fn is None:
        return fan.curve_numbers(tau).get(w, 0)
    if w not in tau:
        return 1 if fan.is_maxcone(tau + (w,)) else 0
    u = u_fn(fan, w, tau)
    total = 0
    for n in range(1, fan.ray_count + 1):
        if n not in tau and fan.is_maxcone(tau + (n,)):
            total -= dot(u, fan.ray(n))
    return total


def divisor_dot_surface(fan: Fan, w: int, sigma: Iterable[int], u_fn: UFunction | None = None) -> CurveCycle:
    """Divisor ``w`` times the surface of 2-cone ``sigma``, as a curve cycle.

    The cycle maps 3-cones to exact coefficients (integers with the default
    functional on a smooth fan); an empty dict is the zero cycle. For ``w``
    outside ``sigma`` the product is the enlarged cone with coefficient 1
    when it spans, zero when it does not. Both routes raise
    :class:`FanError` for a ``w`` outside ``1..ray_count`` and for a
    ``sigma`` that is not a cone of the fan.
    """
    fan.ray(w)  # refuses a divisor that the fan does not have
    sigma = _cone(sigma)
    if not fan.is_face(sigma):
        raise FanError(f"{sigma} is not a cone of the fan")
    if w not in sigma:
        enlarged = _cone(sigma + (w,))
        return {enlarged: 1} if fan.is_face(enlarged) else {}
    u = fan.dual(w, sigma) if u_fn is None else u_fn(fan, w, sigma)
    cycle: CurveCycle = {}
    for n in range(1, fan.ray_count + 1):
        if n in sigma:
            continue
        enlarged = _cone(sigma + (n,))
        if fan.is_face(enlarged):
            coeff = -dot(u, fan.ray(n))
            if coeff != 0:
                cycle[enlarged] = coeff
    return cycle


def ch2_dot_surface(fan: Fan, sigma: Iterable[int], u_fn: UFunction | None = None) -> Fraction:
    """Value of ch2 of the tangent bundle on the surface of ``sigma``.

    Computed as half the sum over all rays w of D_w . (D_w . V(sigma)),
    pairing the curve cycle of each square against the divisor again.
    Always a half-integer on a smooth fan.

    This is the single-surface route, which ``ch2 --surface`` and
    ``paper-table`` take. By default it sums on the fan it is given, and
    reads that fan's stores: on a validated fan they are already filled,
    and on a cold one each is filled whole, once. The star of sigma that
    :func:`~toricfano.fan.build_star` makes, the maximal cones that contain
    it (Fulton, *Introduction to Toric Varieties*, 3.1), gives the same
    value. :func:`classify` reaches the same sums for every surface at
    once in one sweep over the walls.

    The default sum is read from the curve numbers of the walls sigma + n
    around sigma: D_w . V(sigma) is the curve of sigma + w for w in the
    link, sum_n -<u_w, v_n> times the curve of sigma + n for w in sigma
    (u_w = ``fan.dual(w, sigma)``), and zero otherwise. So the sum has one
    term per wall around sigma (:func:`_wall_sum`), and each wall's term
    depends only on that wall and on sigma. With ``u_fn`` the
    divisor-by-divisor route below is taken instead. Both routes raise
    :class:`FanError` for a ``sigma`` that is not a 2-cone of the fan.
    """
    from fractions import Fraction

    sigma = _cone(sigma)
    if len(sigma) != 2:
        raise FanError(f"{sigma} is not a 2-dimensional cone of the fan")
    if u_fn is None:
        if sigma[0] == sigma[1]:
            # refused before the walls around the ray are read
            raise FanError(f"{sigma} is not a cone of the fan")
        return Fraction(_wall_sum(fan, sigma), 2)
    total = 0
    for w in range(1, fan.ray_count + 1):
        for tau, coeff in divisor_dot_surface(fan, w, sigma, u_fn).items():
            total += coeff * divisor_dot_curve(fan, w, tau, u_fn)
    return Fraction(total, 2)


def _wall_sum(fan: Fan, sigma: Cone):
    """sum_w D_w . (D_w . V(sigma)) for a sorted 2-cone of distinct rays.

    The walls around sigma = (p, q) are the fan's 3-cones tau = sigma + n,
    taken in :attr:`Fan.cones3` order, which is the order of n. Their
    relations x come from :meth:`Fan.wall_relations`, and the first of
    these walls without one raises before the duals of sigma are read; a
    sigma that is not a cone has no wall around it, and :meth:`Fan.dual`
    refuses it. The curve of tau meets D_w in -x_w points for w in tau.
    The term of n is then -x_n + <u_p, v_n> x_p + <u_q, v_n> x_q with
    u_p, u_q the duals of p, q on sigma. Each x is a 4-tuple over the rays
    of the holder of tau, read at the positions of n, p and q there.
    """
    p, q = sigma
    tables, rays = fan.tables, fan.rays
    relations = fan.wall_relations()
    # each wall around sigma at its index t, with its third ray n
    around = [(t, sum(tau) - p - q) for t, tau in enumerate(fan.cones3) if p in tau and q in tau]
    for t, _ in around:
        if relations[t] is None:
            raise fan._no_relation(t)
    up, uq = fan.dual(p, sigma), fan.dual(q, sigma)
    total = 0
    for t, n in around:
        x = relations[t]
        holder = tables.maxcones[tables.wall_rows[t][0]]
        v = rays[n - 1]
        total += sum(map(mul, up, v)) * x[holder.index(p)] + sum(map(mul, uq, v)) * x[holder.index(q)]
        total -= x[holder.index(n)]
    return total


def _classification(min_value: Fraction) -> str:
    if min_value > 0:
        return TWO_FANO
    if min_value == 0:
        return NEF_NOT_TWO_FANO
    return NOT_NEF


def classify(fan: Fan) -> Ch2Report:
    """Evaluate ch2 on every invariant surface and classify the variety.

    The witness is the lexicographically least 2-cone attaining the minimum.
    Expects a validated smooth complete Fano fan.

    The values are those of :func:`ch2_dot_surface`, reached by one sweep
    over the walls (:func:`_surface_sums`) instead of one pass over the link
    of each surface. The sum of a surface sigma has one term per wall
    sigma + n around it, and that term depends only on the wall and on
    sigma. A wall tau borders exactly three surfaces, tau minus each of its
    rays, and the walls around sigma are exactly the 3-cones containing it.
    So adding each wall's three terms to the surfaces it borders gives every
    sum term for term, in exact arithmetic. The report keeps these sums,
    which are twice the values and integers on a smooth fan: the minimum and
    its witness are found on them, and the values are halved only when
    :attr:`Ch2Report.values` is read.
    """
    return Ch2Report(fan.cones2, _surface_sums(fan))


def _surface_sums(fan: Fan) -> list:
    """sum_w D_w . (D_w . V(sigma)) for every 2-cone sigma, a list aligned
    with ``fan.cones2``, from one pass over the wall relations.

    The wall tau with coordinates x, its wall relation, adds
    -x_n + <u_p, v_n> x_p + <u_q, v_n> x_q to the surface
    sigma = (p, q) = tau minus n, for each n in tau, with u_p, u_q the duals
    of p, q on the maximal cone holding sigma: the term :func:`_wall_sum`
    adds for n. When n is a generator of that cone, both pairings vanish
    and the term is -x_n. Which of the two a (wall, surface) pair is, and
    where x_n, x_p and x_q sit in x, comes from the index table
    :attr:`~toricfano.fan.FanTables.sweep`, built once per table set. The
    relations and the bases are read by position from the fan's stores,
    :meth:`Fan.wall_relations` and :meth:`Fan.cone_bases`, one call each;
    the duals of p and q sit at the positions that the sweep's surface
    rows record. The first wall without a relation, in :attr:`Fan.cones3`
    order, raises (:meth:`Fan._no_relation`). The holder of sigma also
    holds the walls that it has around sigma (any maximal cone with such a
    wall contains sigma, so none comes earlier), so once every wall
    relation exists no holder of a surface is degenerate. No link of a
    surface is read.
    """
    relations = fan.wall_relations()
    if None in relations:
        raise fan._no_relation(relations.index(None))
    bases = fan.cone_bases()
    tables = fan.tables
    inside, outside, surface_rows = tables.sweep
    acc = [0] * len(tables.cones2)
    for s, t, kn in inside:
        acc[s] -= relations[t][kn]
    # per surface: the duals of p and q on its holder
    duals = [(bases[h][0][i], bases[h][0][j]) for h, i, j in surface_rows]
    rays = fan.rays
    for s, t, n, kn, kp, kq in outside:
        x = relations[t]
        (p0, p1, p2, p3), (q0, q1, q2, q3) = duals[s]
        v0, v1, v2, v3 = rays[n]
        acc[s] += (
            (p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3) * x[kp] + (q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3) * x[kq] - x[kn]
        )
    return acc
