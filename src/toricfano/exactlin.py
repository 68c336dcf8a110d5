"""Exact linear algebra on small integer and rational vectors.

Everything here is plain Python arithmetic over ``int`` and
``fractions.Fraction``, so results are exact by construction: every rational
is stored in lowest terms with a positive denominator, and there is no
rounding anywhere. Vectors are tuples, matrices are sequences of row tuples.

Square 4x4 integer systems are handled in integers only: :func:`det4` and
:func:`adjugate4` give the determinant and the adjugate, whose rows divided
by the determinant form the dual basis (integral on a unimodular matrix).
The rational row reduction behind :func:`solve` and :func:`nullspace` serves
the general, possibly singular or non-square systems, which never have more
than four columns here.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

Vector = tuple
Scalar = "int | Fraction"


def dot(a: Sequence, b: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def _det3(a, b, c) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _drop(row, j):
    return tuple(row[:j]) + tuple(row[j + 1 :])


def det4(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a 4x4 integer matrix given as four rows.

    Cofactor expansion along the first row; all intermediate values stay
    integral, so the result is exact for arbitrarily large entries.
    """
    r0, r1, r2, r3 = rows
    total = 0
    sign = 1
    for j in range(4):
        if r0[j] != 0:
            total += sign * r0[j] * _det3(_drop(r1, j), _drop(r2, j), _drop(r3, j))
        sign = -sign
    return total


def _minors2(y, z) -> tuple[int, ...]:
    # 2x2 minors of the rows y, z on the column pairs 01, 02, 03, 12, 13, 23
    y0, y1, y2, y3 = y
    z0, z1, z2, z3 = z
    return (
        y0 * z1 - y1 * z0,
        y0 * z2 - y2 * z0,
        y0 * z3 - y3 * z0,
        y1 * z2 - y2 * z1,
        y1 * z3 - y3 * z1,
        y2 * z3 - y3 * z2,
    )


def _cofactors(x, m) -> tuple[int, int, int, int]:
    # entry k is (-1)^k times the 3x3 minor of the rows x, y, z without
    # column k, where m = _minors2(y, z)
    m01, m02, m03, m12, m13, m23 = m
    return (
        x[1] * m23 - x[2] * m13 + x[3] * m12,
        x[2] * m03 - x[0] * m23 - x[3] * m02,
        x[0] * m13 - x[1] * m03 + x[3] * m01,
        x[1] * m02 - x[0] * m12 - x[2] * m01,
    )


def adjugate4(cols: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Adjugate and determinant of the 4x4 integer matrix with columns ``cols``.

    Returns ``(adj_rows, det)`` with ``dot(adj_rows[i], cols[j])`` equal to
    ``det`` when ``i == j`` and to 0 otherwise; ``adj_rows[i]`` is the vector
    of signed cofactors of ``cols[i]``. Dividing the rows by ``det`` gives
    the dual basis of ``cols`` (integral when ``det`` is +-1); ``det`` is 0
    exactly when the columns are dependent. Each cofactor is expanded over
    the 2x2 minors of the complementary pair of columns (swapping the pair
    flips the sign), so the work is a few dozen integer products.
    """
    a, b, c, d = cols
    row0 = _cofactors(b, _minors2(c, d))
    adj_rows = (
        row0,
        _cofactors(a, _minors2(d, c)),
        _cofactors(d, _minors2(a, b)),
        _cofactors(c, _minors2(b, a)),
    )
    return adj_rows, dot(a, row0)


def _rref(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce ``m`` in place to reduced row echelon form.

    Pivoting is fixed: columns are scanned left to right, and within a column
    the first row (top to bottom) with a nonzero entry becomes the pivot.
    Only the first ``ncols`` columns are eligible as pivots, so an augmented
    right-hand-side column can ride along untouched. Returns the pivot column
    indices in order.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def solve(rows: Sequence[Sequence], rhs: Sequence):
    """Solve ``A x = b`` exactly.

    Returns ``(x, rank)`` where ``x`` is one exact solution as a tuple of
    ``Fraction``, or ``None`` when the system is inconsistent. When the
    system is underdetermined the canonical solution is returned: free
    variables (the non-pivot columns under the fixed left-to-right pivoting
    of :func:`_rref`) are set to zero, which makes the output deterministic.
    ``rank`` is the rank of the coefficient matrix, so callers can detect
    underdetermination via ``rank < ncols``.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side have different heights")
    ncols = len(rows[0])
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = _rref(m, ncols)
    for i in range(len(pivots), len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols]
    return tuple(x), len(pivots)


def nullspace(rows: Sequence[Sequence]) -> list[tuple]:
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
