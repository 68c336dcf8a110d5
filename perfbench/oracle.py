"""Expected outputs for the benchmark, computed without the package's code.

The atlas text is read by a small reader of its own. Maximal cones come from
the primitive collections, or, for a record without them, from the unimodular
facets of the polytope spanned by the rays. The value of ch2 of the tangent
bundle on an invariant surface is assembled from integer wall relations and
integer dual bases of maximal cones, so no rational solver and nothing from
``toricfano.chern`` or ``toricfano.fan`` is involved. The reference table in
``toricfano.atlas`` is not read either.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple


class Record(NamedTuple):
    name: str
    rays: tuple[tuple[int, ...], ...]
    collections: tuple[tuple[int, ...], ...] | None


def read_atlas(text: str) -> list[Record]:
    """Records of well-formed atlas text, in file order."""
    lines = iter(toks for toks in (raw.split("#", 1)[0].split() for raw in text.splitlines()) if toks)
    records = []
    for head in lines:
        count = int(next(lines)[1])
        rays = tuple(tuple(int(x) for x in next(lines)) for _ in range(count))
        tail = next(lines)
        collections = None
        if tail[0] == "collections":
            collections = tuple(tuple(int(i) for i in next(lines)) for _ in range(int(tail[1])))
            next(lines)  # "end"
        records.append(Record(head[1], rays, collections))
    return records


def write_atlas(records) -> str:
    out = []
    for rec in records:
        out += [f"variety {rec.name}", f"rays {len(rec.rays)}"]
        out += [" ".join(str(x) for x in v) for v in rec.rays]
        if rec.collections is not None:
            out.append(f"collections {len(rec.collections)}")
            out += [" ".join(str(i) for i in c) for c in rec.collections]
        out += ["end", ""]
    return "\n".join(out)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def dual_basis(rows):
    """Rows u_k with <u_k, rows[l]> = delta_kl, or None unless det is +-1.

    For a unimodular matrix the cofactor matrix times the determinant is the
    inverse transpose, so the dual basis is integral.
    """
    d = _det(rows)
    if abs(d) != 1:
        return None
    n = len(rows)
    return [
        [
            (-1) ** (i + j) * d * _det([r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i])
            for j in range(n)
        ]
        for i in range(n)
    ]


class OracleFan:
    """Smooth complete fan of a record, with every wall relation."""

    def __init__(self, rec: Record):
        rays = rec.rays
        self.rays = rays
        subsets = combinations(range(1, len(rays) + 1), 4)
        if rec.collections is None:
            maxcones = []
            for mc in subsets:
                duals = dual_basis([rays[i - 1] for i in mc])
                if duals is None:
                    continue
                facet = [sum(col) for col in zip(*duals)]
                if all(_dot(facet, rays[j - 1]) < 1 for j in range(1, len(rays) + 1) if j not in mc):
                    maxcones.append(mc)
        else:
            colls = [set(c) for c in rec.collections]
            maxcones = [mc for mc in subsets if not any(c <= set(mc) for c in colls)]
        self.duals = {mc: dual_basis([rays[i - 1] for i in mc]) for mc in maxcones}
        if not maxcones or any(d is None for d in self.duals.values()):
            raise ValueError(f"{rec.name}: not a smooth fan")
        link = defaultdict(list)
        for mc in maxcones:
            for k in range(4):
                link[mc[:k] + mc[k + 1 :]].append(mc[k])
        # wall relation v_a + v_b = sum_j beta_j v_j over the wall tau
        self.beta: dict[tuple, dict[int, int]] = {}
        for tau, adjacent in link.items():
            if len(adjacent) != 2:
                raise ValueError(f"{rec.name}: wall {tau} lies in {len(adjacent)} cones")
            a, b = adjacent
            mc = tuple(sorted(tau + (a,)))
            coords = dict(zip(mc, (_dot(u, rays[b - 1]) for u in self.duals[mc])))
            if coords[a] != -1:
                raise ValueError(f"{rec.name}: wall {tau} is not a smooth wall")
            self.beta[tau] = {j: coords[j] for j in tau}
        self.cone_of = {}
        for mc in maxcones:
            for sigma in combinations(mc, 2):
                self.cone_of.setdefault(sigma, mc)
        self.cones2 = sorted(self.cone_of)

    def ch2(self, sigma) -> Fraction:
        """ch2 of the tangent bundle on the surface of the 2-cone ``sigma``.

        Half of sum_w D_w^2 . V(sigma). For w off sigma, D_w . V(sigma) is the
        curve of sigma+w and D_w meets it in -beta_w. For w in sigma, D_w is
        moved by a dual-basis functional u_w of a cone containing sigma:
        D_w . V(sigma) = sum_n -<u_w, v_n> C(sigma+n), with D_w . C = -beta_w.
        """
        mc = self.cone_of[sigma]
        u = {w: self.duals[mc][mc.index(w)] for w in sigma}
        total = 0
        for n in range(1, len(self.rays) + 1):
            tau = tuple(sorted(sigma + (n,)))
            beta = self.beta.get(tau) if n not in sigma else None
            if beta is None:
                continue
            total -= beta[n]
            for w in sigma:
                total += _dot(u[w], self.rays[n - 1]) * beta[w]
        return Fraction(total, 2)

    def values(self) -> dict[tuple, Fraction]:
        return {sigma: self.ch2(sigma) for sigma in self.cones2}


def classify_all_stdout(values_by_name: dict[str, dict]) -> str:
    """Expected stdout of ``classify --all``, byte for byte."""
    lines = ["variety\tsurface\tvalue\tclassification"]
    two_fano = []
    for name, values in values_by_name.items():
        witness = min(values, key=lambda s: (values[s], s))
        low = values[witness]
        cls = "two_fano" if low > 0 else "nef_not_two_fano" if low == 0 else "not_nef"
        lines.append(f"{name}\tV({witness[0]},{witness[1]})\t{low}\t{cls}")
        if cls == "two_fano":
            two_fano.append(name)
    names = (": " + " ".join(two_fano)) if two_fano else ""
    lines.append(f"# two_fano {len(two_fano)} of {len(values_by_name)}{names}")
    return "\n".join(lines) + "\n"


def swap_accepted(rec: Record, i: int, j: int) -> bool:
    """Verdict for ``rec`` with rays i and j exchanged, collections kept.

    A smooth Fano fan is determined by its ray set (Batyrev), so the record
    is valid exactly when the transposition maps the collection set onto
    itself; a record without collections gets its fan from the rays.
    """
    if rec.collections is None:
        return True
    t = {i: j, j: i}
    swapped = {tuple(sorted(t.get(k, k) for k in c)) for c in rec.collections}
    return swapped == set(rec.collections)
