"""Property tests: the atlas parser is total, and ch2 does not depend on
the lattice basis or on the order of the rays.

Examples are derandomized and no example database is kept, so every run
draws the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.atlas import AtlasParseError, parse
from toricfano.chern import ch2_dot_surface
from toricfano.fan import build_fan, lattice_key

SETTINGS = dict(derandomize=True, database=None, deadline=None)

# words of the atlas format, so that drawn text gets past the first lines
TOKENS = st.one_of(
    st.sampled_from(["variety", "rays", "collections", "end", "X", "#", "-", "1.5", ""]),
    st.integers(-3, 6).map(str),
    st.text(max_size=3),
)
ATLAS_LIKE = st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=14).map("\n".join)


@settings(max_examples=200, **SETTINGS)
@given(st.one_of(st.text(), ATLAS_LIKE))
def test_parser_raises_only_parse_errors(text):
    try:
        parse(text)
    except AtlasParseError:
        pass


# a product of transvections, a signed row permutation: determinant +-1
# (i, k, c): add c times row i + k (mod 4) to row i
TRANSVECTIONS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from((-2, -1, 1, 2))),
    max_size=6,
)


def _unimodular(transvections, rows, signs):
    m = [[int(r == c) for c in range(4)] for r in range(4)]
    for i, k, c in transvections:
        m[i] = [x + c * y for x, y in zip(m[i], m[(i + k) % 4])]
    return [[s * x for x in m[r]] for r, s in zip(rows, signs)]


@settings(max_examples=100, **SETTINGS)
@given(
    st.data(),
    TRANSVECTIONS,
    st.permutations(range(4)),
    st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
)
def test_ch2_is_invariant_under_lattice_maps_and_relabellings(database, fans, data, transvections, rows, signs):
    rec = data.draw(st.sampled_from(database.records), label="record")
    perm = data.draw(st.permutations(range(1, len(rec.rays) + 1)), label="new index of each ray")
    g = _unimodular(transvections, rows, signs)
    rays = [None] * len(rec.rays)
    for old, ray in enumerate(rec.rays):
        rays[perm[old] - 1] = tuple(sum(g[r][c] * ray[c] for c in range(4)) for r in range(4))
    moved = build_fan(rays, [tuple(perm[i - 1] for i in c) for c in rec.collections])
    fan = fans[rec.name]
    for sigma in fan.cones2:
        image = tuple(sorted(perm[i - 1] for i in sigma))
        assert ch2_dot_surface(moved, image) == ch2_dot_surface(fan, sigma), (rec.name, sigma)
    assert lattice_key(moved) == lattice_key(fan), rec.name
