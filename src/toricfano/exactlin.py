"""Exact linear algebra on small integer and rational vectors.

Everything here is plain Python arithmetic over ``int`` and
``fractions.Fraction``, so results are exact by construction: every rational
is stored in lowest terms with a positive denominator, and there is no
rounding anywhere. Vectors are tuples, matrices are sequences of row tuples.
``fractions`` is imported only where a ``Fraction`` is made, since it is slow
to import and the integer kernels never need it.

Square 4x4 integer systems are handled in integers only: :func:`adjugates4`
gives the adjugate and the determinant of each matrix of a batch, and the
adjugate rows divided by the determinant form the dual basis (integral on a
unimodular matrix).
The rational row reduction behind :func:`solve` serves the general, possibly
singular or non-square systems, which never have more than four columns
here.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import mul

# true for a type checker only, so annotations can name Fraction unimported
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def dot(a: Sequence, b: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(a) != len(b):
        raise ValueError(f"vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def adjugates4(matrices: Iterable[Sequence[Sequence[int]]]) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """Adjugate and determinant of each 4x4 integer matrix, given by its columns.

    Returns one ``(adj_rows, det)`` per matrix, in order, with
    ``dot(adj_rows[i], cols[j])`` equal to ``det`` when ``i == j`` and to 0
    otherwise; ``adj_rows[i]`` is the vector of signed cofactors of
    ``cols[i]``. Dividing the rows by ``det`` gives the dual basis of
    ``cols`` (integral when ``det`` is +-1); ``det`` is 0 exactly when the
    columns are dependent. Each cofactor is expanded over the twelve 2x2
    minors of the column pairs (a, b) and (c, d), so the work is a few dozen
    integer products per matrix, in one loop over the batch.
    """
    out = []
    for (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) in matrices:
        # 2x2 minors of (a, b) and of (c, d) on the coordinate pairs 01 .. 23
        ab01, ab02, ab03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        ab12, ab13, ab23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        cd01, cd02, cd03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
        cd12, cd13, cd23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
        row0 = (
            b1 * cd23 - b2 * cd13 + b3 * cd12,
            b2 * cd03 - b0 * cd23 - b3 * cd02,
            b0 * cd13 - b1 * cd03 + b3 * cd01,
            b1 * cd02 - b0 * cd12 - b2 * cd01,
        )
        adj_rows = (
            row0,
            (
                a2 * cd13 - a1 * cd23 - a3 * cd12,
                a0 * cd23 - a2 * cd03 + a3 * cd02,
                a1 * cd03 - a0 * cd13 - a3 * cd01,
                a0 * cd12 - a1 * cd02 + a2 * cd01,
            ),
            (
                d1 * ab23 - d2 * ab13 + d3 * ab12,
                d2 * ab03 - d0 * ab23 - d3 * ab02,
                d0 * ab13 - d1 * ab03 + d3 * ab01,
                d1 * ab02 - d0 * ab12 - d2 * ab01,
            ),
            (
                c2 * ab13 - c1 * ab23 - c3 * ab12,
                c0 * ab23 - c2 * ab03 + c3 * ab02,
                c1 * ab03 - c0 * ab13 - c3 * ab01,
                c0 * ab12 - c1 * ab02 + c2 * ab01,
            ),
        )
        out.append((adj_rows, a0 * row0[0] + a1 * row0[1] + a2 * row0[2] + a3 * row0[3]))
    return out


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
    from fractions import Fraction

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
