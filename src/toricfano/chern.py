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

from collections import namedtuple
from collections.abc import Callable, Iterable
from operator import mul

from .exactlin import dot
from .fan import Cone, Fan, _cone

# true for a type checker only, so annotations can name Fraction unimported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

CurveCycle = dict  # 3-cone -> int or Fraction, zero coefficients dropped

TWO_FANO = "two_fano"
NEF_NOT_TWO_FANO = "nef_not_two_fano"
NOT_NEF = "not_nef"

UFunction = Callable[[Fan, int, Cone], tuple]


class Ch2Report(namedtuple("Ch2Report", "values min_value witness classification")):
    """Second-Chern-character values on every invariant surface of a fan:
    ``values`` maps each 2-cone to its ``Fraction``, ``min_value`` is the
    least of them, attained at the 2-cone ``witness``, and
    ``classification`` is one of :data:`TWO_FANO`,
    :data:`NEF_NOT_TWO_FANO` and :data:`NOT_NEF`."""

    __slots__ = ()


def divisor_dot_curve(fan: Fan, w: int, tau: Iterable[int], u_fn: UFunction | None = None) -> int | Fraction:
    """Intersection number of divisor ``w`` with the curve of 3-cone ``tau``.

    An ``int`` with the default functional on a smooth fan, read from
    :meth:`Fan.curve_numbers`. ``u_fn`` overrides the functional choice,
    which is useful for checking that the choice does not matter.
    """
    tau = _cone(tau)
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
    when it spans, zero when it does not.
    """
    sigma = _cone(sigma)
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
    ``paper-table`` take: it computes only the dual bases and wall
    relations around ``sigma``. :func:`classify` reaches the same sums for
    every surface at once in one sweep over the walls.

    By default the sum is read from the curve numbers of the walls
    sigma + n around sigma (:meth:`Fan.wall_relations` of those walls,
    computed once per wall): D_w . V(sigma) is the curve of sigma + w for w
    in the link, sum_n -<u_w, v_n> times the curve of sigma + n for w in sigma
    (u_w = ``fan.dual(w, sigma)``), and zero otherwise. So the sum has one
    term per wall around sigma (:func:`_wall_sum`), and each wall's term
    depends only on that wall and on sigma. With ``u_fn`` the
    divisor-by-divisor route below is taken instead.
    """
    from fractions import Fraction

    sigma = _cone(sigma)
    if u_fn is None:
        return Fraction(_wall_sum(fan, sigma), 2)
    total = 0
    for w in range(1, fan.ray_count + 1):
        for tau, coeff in divisor_dot_surface(fan, w, sigma, u_fn).items():
            total += coeff * divisor_dot_curve(fan, w, tau, u_fn)
    return Fraction(total, 2)


def _wall_sum(fan: Fan, sigma: Cone):
    """sum_w D_w . (D_w . V(sigma)) for a sorted 2-cone from the wall table.

    The walls around sigma = (p, q) are the 3-cones tau = sigma + n in
    :attr:`Fan.walls`, and their relations x are filled by one
    :meth:`Fan.wall_relations` call, which computes no other wall. The curve
    of tau meets D_w in -x_w points for w in tau. The term of n is then
    -x_n + <u_p, v_n> x_p + <u_q, v_n> x_q with u_p, u_q the duals of p, q
    on sigma.
    """
    p, q = sigma
    walls, rays = fan.walls, fan.rays
    around = {}
    for n in range(1, fan.ray_count + 1):
        tau = (n, p, q) if n < p else (p, n, q) if n < q else (p, q, n)
        if n != p and n != q and tau in walls:
            around[tau] = n
    relations = fan.wall_relations(around)
    # the cone holding sigma holds two of these walls, so its basis is stored
    up, uq = fan.dual(p, sigma), fan.dual(q, sigma)
    total = 0
    for tau, n in around.items():
        x = relations[tau]
        v = rays[n - 1]
        total += sum(map(mul, up, v)) * x[p] + sum(map(mul, uq, v)) * x[q] - x[n]
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
    sum term for term, in exact arithmetic. The minimum is found on the
    integer sums, which are twice the values.
    """
    from fractions import Fraction

    twice = _surface_sums(fan)
    witness = min(twice, key=twice.__getitem__)
    halves = {total: Fraction(total, 2) for total in set(twice.values())}
    values = {sigma: halves[total] for sigma, total in twice.items()}
    min_value = values[witness]
    return Ch2Report(values, min_value, witness, _classification(min_value))


def _surface_sums(fan: Fan) -> dict:
    """sum_w D_w . (D_w . V(sigma)) for every 2-cone sigma, in the order of
    ``fan.cones2``, from one pass over the wall table.

    The wall tau = (a, b, c) with coordinates x, its wall relation, adds
    -x_n + <u_p, v_n> x_p + <u_q, v_n> x_q to the surface
    sigma = (p, q) = tau minus n, for each n in tau, with u_p, u_q the duals
    of p, q on the maximal cone holding sigma: the term :func:`_wall_sum`
    adds for n. When n is a generator of that cone, both pairings vanish
    and the term is -x_n. The relations and the bases are read from the
    fan's stores, :meth:`Fan.wall_relations` and :meth:`Fan.cone_bases`,
    one call each. The holder of sigma also holds the walls that it has
    around sigma (any maximal cone with such a wall contains sigma, so none
    comes earlier), so once every wall relation exists no holder of a
    surface is degenerate. No link of a surface is read.
    """
    relations = fan.wall_relations()
    bases = fan.cone_bases()
    holders = fan.tables.faces
    acc: dict = dict.fromkeys(fan.cones2, 0)
    # per surface: the duals of p and q on its holder, then the holder
    duals = {}
    for sigma in acc:
        mc = holders[sigma]
        u = bases[mc][0]
        duals[sigma] = (*u[mc.index(sigma[0])], *u[mc.index(sigma[1])], mc)
    rays = fan.rays
    for tau, x in relations.items():
        a, b, c = tau
        xa, xb, xc = x[a], x[b], x[c]
        # the surfaces (b, c), (a, c) and (a, b), across n = a, b and c
        p0, p1, p2, p3, q0, q1, q2, q3, mc = duals[b, c]
        if a in mc:
            acc[b, c] -= xa
        else:
            v0, v1, v2, v3 = rays[a - 1]
            acc[b, c] += (
                (p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3) * xb + (q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3) * xc - xa
            )
        p0, p1, p2, p3, q0, q1, q2, q3, mc = duals[a, c]
        if b in mc:
            acc[a, c] -= xb
        else:
            v0, v1, v2, v3 = rays[b - 1]
            acc[a, c] += (
                (p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3) * xa + (q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3) * xc - xb
            )
        p0, p1, p2, p3, q0, q1, q2, q3, mc = duals[a, b]
        if c in mc:
            acc[a, b] -= xc
        else:
            v0, v1, v2, v3 = rays[c - 1]
            acc[a, b] += (
                (p0 * v0 + p1 * v1 + p2 * v2 + p3 * v3) * xa + (q0 * v0 + q1 * v1 + q2 * v2 + q3 * v3) * xb - xc
            )
    return acc
