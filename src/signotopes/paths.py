"""Longest monochromatic monotone paths.

A monotone path on vertices x_1 < ... < x_k consists of all windows of r
consecutive vertices; it is monochromatic when every window has the same
color.  Lengths are counted in *vertices*, not edges.  Sequences with
fewer than r vertices carry no edge and count as paths of both colors,
which puts the DP base at r-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import index

from .core import SignFunction, _brief, _require_binary, colex_layout
from .errors import InvalidArgument


_MINUS, _PLUS = 0, 1


@dataclass(frozen=True)
class PathReport:
    """Longest monochromatic path per color, with witness vertex sequences."""

    best_minus: int
    best_plus: int
    witness_minus: tuple[int, ...]
    witness_plus: tuple[int, ...]

    @property
    def best(self) -> int:
        return max(self.best_minus, self.best_plus)


@lru_cache(maxsize=None)
def _views(r: int, n: int) -> tuple:
    """The layout views the DP reads: per edge (u, *t) in colex order (by t, then u),
    the ranks of (u, *t[:-1]) and t, deletion table columns 0 and -1; the tuples t."""
    table = colex_layout(n, r).deletion
    return table[:, 0], table[:, -1], colex_layout(n, r - 1).edges


def longest_mono_paths(c: SignFunction) -> PathReport:
    """Exact longest monochromatic path lengths via DP over (r-1)-tuples.

    For each color, L(t) is the number of vertices of the longest
    monochromatic path whose last r-1 vertices are t.  Such a path arises
    by appending t's last vertex to a path ending in (v_1, *t[:-1]) for
    some v_1 < t[0], which requires the edge (v_1, *t) to carry the
    color.  Tuples are processed in colex order so predecessors are
    final.  O(n^r) time, O(n^(r-1)) memory per color.

    Witnesses are reconstructed through parent links; ties break toward
    the lexicographically smallest witness (smallest predecessor vertex,
    then smallest reconstruction among maximal tuples).
    """
    _require_binary(c)
    r, n = c.r, c.n
    base = r - 1
    m = comb(n, base)
    before, last, suffixes = (view.tolist() for view in _views(r, n))
    length = ([base] * m, [base] * m)
    parent = ([-1] * m, [-1] * m)

    for value, p_rank, t_rank in zip(c.colors.tolist(), before, last):
        col = _MINUS if value < 0 else _PLUS
        cand = length[col][p_rank] + 1
        if cand > length[col][t_rank]:
            length[col][t_rank] = cand
            parent[col][t_rank] = p_rank

    def reconstruct(col: int) -> tuple[int, tuple[int, ...]]:
        best = max(length[col])
        paths = []
        for t_rank, val in enumerate(length[col]):
            if val != best:
                continue
            seq = list(suffixes[t_rank])
            walk = t_rank
            while parent[col][walk] != -1:
                walk = parent[col][walk]
                seq.insert(0, suffixes[walk][0])
            paths.append(tuple(seq))
        return best, min(paths)

    best_minus, wit_minus = reconstruct(_MINUS)
    best_plus, wit_plus = reconstruct(_PLUS)
    return PathReport(best_minus, best_plus, wit_minus, wit_plus)


def contains_path(c: SignFunction, m: int) -> bool:
    """Whether some monochromatic monotone path spans at least m vertices;
    ``m`` is read as an integer, so a float raises TypeError."""
    m = index(m)
    if m < c.r:
        raise InvalidArgument(f"path must span at least r={c.r} vertices, got m={_brief(m)}")
    return longest_mono_paths(c).best >= m
