import random
from fractions import Fraction

import pytest
from helpers import det4

from toricfano.exactlin import adjugate4, dot, nullspace, solve


def test_dot_examples():
    assert dot((1, 0, 0, 0), (2, 0, -1, -1)) == 2
    assert dot((Fraction(1, 2), 1, 0, 0), (0, 0, 0, 0)) == 0
    assert dot((0, 1, 0, 0), (1, 1, 0, 0)) == 1


def test_dot_rejects_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2, 3), (1, 2, 3, 4))


def test_det4_identity():
    assert det4([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == 1


def test_det4_known_quadruple():
    # rays v3, v4, v6, v7 of the H1 fan; value +1 fixed by hand expansion
    rows = [(0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, 0, 0), (0, -1, 0, 0)]
    assert det4(rows) == 1


def test_det4_repeated_row_is_zero():
    rows = [(1, 2, 3, 4), (0, 1, 0, 1), (1, 2, 3, 4), (5, 0, 0, 1)]
    assert det4(rows) == 0


def test_det4_alternating_under_row_swaps():
    rng = random.Random(20240803)
    for _ in range(50):
        rows = [tuple(rng.randint(-6, 6) for _ in range(4)) for _ in range(4)]
        i, j = rng.sample(range(4), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det4(swapped) == -det4(rows)


def _assert_adjugate(cols):
    adj, det = adjugate4(cols)
    assert det == det4(cols)
    for i in range(4):
        for j in range(4):
            assert dot(adj[i], cols[j]) == (det if i == j else 0)
    return det


def _unimodular(rng):
    # random elementary row operations on the identity, plus maybe a swap
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        f = rng.choice((-1, 1))
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0], m[1] = m[1], m[0]
    return [tuple(row) for row in m]


def test_adjugate4_random_matrices():
    rng = random.Random(20261018)
    dets = []
    for _ in range(100):
        cols = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4)]
        dets.append(_assert_adjugate(cols))
        dets.append(_assert_adjugate(_unimodular(rng)))
        cols[3] = tuple(x - 2 * y for x, y in zip(cols[0], cols[1]))
        dets.append(_assert_adjugate(cols))
    assert {0, 1, -1} <= set(dets)
    assert sum(abs(d) > 1 for d in dets) > 50


def test_adjugate4_cases_by_determinant():
    identity = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert adjugate4(identity) == (tuple(identity), 1)
    # rays v3, v4, v6, v7 of H1: unimodular, so the rows are the dual basis
    assert _assert_adjugate([(0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, 0, 0), (0, -1, 0, 0)]) == 1
    assert _assert_adjugate([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]) == -1
    # the cone of weighted projective space P(1,1,1,1,2) that omits the weight-2 ray
    assert _assert_adjugate([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, -2)]) == -2
    assert _assert_adjugate([(1, 2, 3, 4), (0, 1, 0, 1), (1, 2, 3, 4), (5, 0, 0, 1)]) == 0
    # dependent but pairwise independent columns: det 0, adjugate still exact
    assert _assert_adjugate([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1)]) == 0


def test_solve_identity():
    sol = solve([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], (0, 1, 0, 0))
    assert sol == ((0, 1, 0, 0), 4)


def test_solve_underdetermined_sets_free_variables_to_zero():
    # constraints <x,e2>=1, <x,e3>=0, <x,e4>=0; the free first coordinate
    # must come back as 0
    rows = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    x, rank = solve(rows, (1, 0, 0))
    assert x == (0, 1, 0, 0)
    assert rank == 3


def test_solve_expresses_vector_in_standard_basis():
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    x, rank = solve(rows, (2, 0, 0, 0))
    assert x == (2, 0, 0, 0)
    assert rank == 4


def test_solve_reports_inconsistency():
    rows = [(1, 1, 0, 0), (1, 1, 0, 0)]
    assert solve(rows, (1, 2)) is None


def test_solve_resubstitutes_exactly():
    rng = random.Random(77)
    for _ in range(60):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 4)
        rows = [
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(ncols))
            for _ in range(nrows)
        ]
        target = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols))
        rhs = tuple(dot(row, target) for row in rows)
        sol = solve(rows, rhs)
        assert sol is not None
        x, rank = sol
        assert all(dot(row, x) == b for row, b in zip(rows, rhs))
        assert 0 <= rank <= min(nrows, ncols)


def test_solutions_are_normalized_fractions():
    x, _ = solve([(2, 4, 0, 0), (0, 0, 3, 0)], (1, 1))
    for value in x:
        assert isinstance(value, Fraction)
        assert value.denominator > 0


def test_nullspace_members_annihilate_rows():
    rng = random.Random(99)
    for _ in range(40):
        nrows = rng.randint(1, 3)
        rows = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(nrows)]
        for basis_vec in nullspace(rows):
            assert all(dot(row, basis_vec) == 0 for row in rows)


def test_nullspace_of_full_rank_matrix_is_empty():
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert nullspace(rows) == []


def test_nullspace_dimension_matches_rank_deficit():
    rows = [(1, 1, 0, 0), (0, 0, 1, 1)]
    basis = nullspace(rows)
    assert len(basis) == 2
